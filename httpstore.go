package crac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/dmtcp"
	"repro/internal/netstore"
)

// HTTPStore is a Store backed by a remote image server speaking the
// netstore protocol (ServeStore on the other end, or `cracmigrate
// -serve`). Its GetAt issues HTTP Range requests, so a lazy restart
// faults individual shards across the wire instead of downloading
// whole images, and Put streams the image as the checkpoint pipeline
// produces it.
//
// Failures are classified for retry: server-side errors (5xx, 408,
// 429) and transport failures (timeouts, connection resets) report
// Transient() == true, so wrapping an HTTPStore in WithRetry gives
// bounded backoff over a flaky network. A 404 maps to ErrImageNotFound and a
// caller-cancelled context to the context's own error; neither
// retries.
type HTTPStore struct {
	c *netstore.Client
}

// An HTTPStoreOption configures NewHTTPStore.
type HTTPStoreOption func(*httpStoreSettings)

type httpStoreSettings struct {
	client *http.Client
}

// WithHTTPClient sets the *http.Client used for every request —
// custom TLS configuration, timeouts, or connection pooling. The
// default is http.DefaultClient.
func WithHTTPClient(c *http.Client) HTTPStoreOption {
	return func(s *httpStoreSettings) { s.client = c }
}

// NewHTTPStore returns a Store for the image server at baseURL
// ("http://host:port" or "https://host:port", optionally with a path
// prefix under which the server is mounted).
func NewHTTPStore(baseURL string, opts ...HTTPStoreOption) (*HTTPStore, error) {
	var cfg httpStoreSettings
	for _, o := range opts {
		o(&cfg)
	}
	c, err := netstore.NewClient(baseURL, cfg.client)
	if err != nil {
		return nil, err
	}
	return &HTTPStore{c: c}, nil
}

// BaseURL returns the server base URL the store talks to.
func (s *HTTPStore) BaseURL() string { return s.c.BaseURL() }

// mapErr folds the wire-level not-found sentinel into the public one;
// every other netstore error passes through with its Transient()
// classification intact.
func (s *HTTPStore) mapErr(err error, name string) error {
	if errors.Is(err, netstore.ErrNotFound) {
		return fmt.Errorf("%w: %q (%s)", ErrImageNotFound, name, s.c.BaseURL())
	}
	return err
}

// Put implements Store, streaming the image to the server. Atomicity
// is the remote store's: the server publishes the name only once the
// full body arrived and its own Put committed.
func (s *HTTPStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	if err := validateImageName(name); err != nil {
		return err
	}
	return s.mapErr(s.c.Put(ctx, name, write), name)
}

// Get implements Store.
func (s *HTTPStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	if err := validateImageName(name); err != nil {
		return nil, err
	}
	rc, err := s.c.Get(ctx, name)
	if err != nil {
		return nil, s.mapErr(err, name)
	}
	return rc, nil
}

// List implements Store.
func (s *HTTPStore) List(ctx context.Context) ([]string, error) {
	return s.c.List(ctx)
}

// Delete implements Store.
func (s *HTTPStore) Delete(ctx context.Context, name string) error {
	if err := validateImageName(name); err != nil {
		return err
	}
	return s.mapErr(s.c.Delete(ctx, name), name)
}

// GetAt implements RandomAccessStore: one ranged GET resolves the image
// size and fetches its first dmtcp.PrefetchChunk bytes — all of any
// image a waited restart reads in one request — and each ReadAt beyond
// that is an independent Range request (safe for concurrent use).
func (s *HTTPStore) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	if err := validateImageName(name); err != nil {
		return nil, 0, err
	}
	src, size, err := s.c.GetAt(ctx, name, dmtcp.PrefetchChunk)
	if err != nil {
		return nil, 0, s.mapErr(err, name)
	}
	return src, size, nil
}

// ExistsBatch implements BatchExister in one round trip, so a CASStore
// layered over an HTTPStore skips uploading chunks the remote side
// already holds. Older servers without the endpoint are handled by the
// client (it falls back to a List).
func (s *HTTPStore) ExistsBatch(ctx context.Context, names []string) (map[string]bool, error) {
	return s.c.ExistsBatch(ctx, names)
}

var (
	_ Store        = (*HTTPStore)(nil)
	_ BatchExister = (*HTTPStore)(nil)
)

// ServeStore exposes store over HTTP as an http.Handler speaking the
// protocol NewHTTPStore consumes: mount it on a mux (or hand it to
// http.Serve) on the destination node and point an HTTPStore at it.
// Every read is served through store's GetAt: Range requests are what
// a remote lazy restart needs to fault shards on demand.
func ServeStore(store Store) http.Handler {
	b := netstore.Backend{
		Put:    store.Put,
		List:   store.List,
		Delete: store.Delete,
		IsNotFound: func(err error) bool {
			return errors.Is(err, ErrImageNotFound)
		},
		GetAt: func(ctx context.Context, name string) (netstore.ReaderAtCloser, int64, error) {
			return store.GetAt(ctx, name)
		},
		Exists: func(ctx context.Context, name string) (bool, error) {
			rc, err := store.Get(ctx, name)
			if err != nil {
				if errors.Is(err, ErrImageNotFound) {
					return false, nil
				}
				return false, err
			}
			rc.Close()
			return true, nil
		},
	}
	return netstore.NewHandler(b)
}
