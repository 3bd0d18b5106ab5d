// Package netstore is the HTTP transport behind crac's remote Store:
// a deliberately small REST protocol exposing a named-image store over
// HTTP(S), so checkpoints can be written to — and lazily restored from
// — another node. The package speaks in plain transport terms
// (io.Reader, names, ranges) and knows nothing about image formats;
// crac.NewHTTPStore and crac.ServeStore adapt it to the Store surface.
//
// Protocol (rooted at the server's base URL):
//
//	GET    /v1/images            list image names (JSON array)
//	GET    /v1/images/{name}     read an image; Range requests honoured
//	HEAD   /v1/images/{name}     image size (Content-Length)
//	PUT    /v1/images/{name}     store an image (streamed request body)
//	DELETE /v1/images/{name}     remove an image
//	POST   /v1/exists            batch existence check (JSON array in,
//	                             JSON array of the present subset out)
//
// Range support on GET is what lets a lazy restart's shard index fault
// individual shards across the wire instead of downloading whole
// images. The batch-exists endpoint is what makes replication
// delta-aware: a content-addressed sender asks once which chunk keys
// the destination already holds and ships only the rest, so migration
// pre-copy rounds and supervisor uploads skip bytes the far side has.
//
// Error classification matters more than the protocol here: every
// client failure is either a *StatusError (the server answered, with
// that status) or a *TransportError (the network ate the request), and
// both expose the Transient() convention crac's retry layer keys on —
// 5xx, 408, 429, timeouts, and connection resets retry; 4xx and a
// caller-cancelled context do not.
package netstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// routePrefix roots every image route; bump it if the wire protocol
// ever changes incompatibly.
const routePrefix = "/v1/images"

// existsRoute is the batch existence-check endpoint.
const existsRoute = "/v1/exists"

// maxExistsBatch bounds one batch-exists request, matching the image
// decoder's item-count philosophy: generous for real use, small enough
// that a hostile request cannot balloon server memory.
const maxExistsBatch = 1 << 16

// ErrNotFound reports a name with no image on the server. It is never
// transient: retrying a lookup for an image that is not there will not
// make it appear.
var ErrNotFound = errors.New("netstore: image not found")

// ReaderAtCloser mirrors crac.ReaderAtCloser so the two packages can
// interoperate without an import cycle (the root package adapts).
type ReaderAtCloser interface {
	io.ReaderAt
	io.Closer
}

// Backend is the store a Handler serves, expressed as plain functions
// so any image store can plug in without this package importing it.
// GetAt, Put, List, and Delete are required; GetAt serves every read —
// whole images, Range requests and HEAD alike. IsNotFound is optional
// (without it, every backend error maps to a 500).
type Backend struct {
	GetAt      func(ctx context.Context, name string) (ReaderAtCloser, int64, error)
	Put        func(ctx context.Context, name string, write func(io.Writer) error) error
	List       func(ctx context.Context) ([]string, error)
	Delete     func(ctx context.Context, name string) error
	IsNotFound func(err error) bool
	// Exists is optional; without it, batch-exists requests fall back
	// to one List and a set intersection.
	Exists func(ctx context.Context, name string) (bool, error)
}

// NewHandler serves b over the netstore protocol.
func NewHandler(b Backend) http.Handler {
	h := &handler{b: b}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+routePrefix, h.list)
	mux.HandleFunc("GET "+routePrefix+"/{name}", h.get)
	mux.HandleFunc("HEAD "+routePrefix+"/{name}", h.get)
	mux.HandleFunc("PUT "+routePrefix+"/{name}", h.put)
	mux.HandleFunc("DELETE "+routePrefix+"/{name}", h.delete)
	mux.HandleFunc("POST "+existsRoute, h.exists)
	return mux
}

type handler struct{ b Backend }

// writeErr maps a backend error onto the wire: 404 for a missing
// image, 500 for everything else, with the error text as the body so
// the client can surface it.
func (h *handler) writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if h.b.IsNotFound != nil && h.b.IsNotFound(err) {
		code = http.StatusNotFound
	}
	http.Error(w, err.Error(), code)
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	names, err := h.b.List(r.Context())
	if err != nil {
		h.writeErr(w, err)
		return
	}
	if names == nil {
		names = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(names)
}

func (h *handler) get(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	src, size, err := h.b.GetAt(r.Context(), name)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	defer src.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	// ServeContent handles plain GETs, HEAD, Range (single and invalid
	// ranges, 206/416), and Content-Length from the seeker's size.
	http.ServeContent(w, r, "", time.Time{}, io.NewSectionReader(src, 0, size))
}

// putCopyPool recycles the body-staging buffer of PUT requests. A
// supervisor uploading every few seconds — or a CAS sender streaming
// hundreds of chunk PUTs per checkpoint — would otherwise allocate a
// fresh copy buffer per image on the server's hot path.
var putCopyPool = sync.Pool{
	New: func() any {
		b := make([]byte, 256<<10)
		return &b
	},
}

func (h *handler) put(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	err := h.b.Put(r.Context(), name, func(dst io.Writer) error {
		bp := putCopyPool.Get().(*[]byte)
		_, cerr := io.CopyBuffer(struct{ io.Writer }{dst}, struct{ io.Reader }{r.Body}, *bp)
		putCopyPool.Put(bp)
		return cerr
	})
	if err != nil {
		h.writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// exists answers a batch existence check: a JSON array of names in,
// the present subset (in request order) out.
func (h *handler) exists(w http.ResponseWriter, r *http.Request) {
	var names []string
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<26)).Decode(&names); err != nil {
		http.Error(w, "netstore: malformed exists request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(names) > maxExistsBatch {
		http.Error(w, fmt.Sprintf("netstore: exists batch of %d exceeds limit %d",
			len(names), maxExistsBatch), http.StatusBadRequest)
		return
	}
	present := []string{}
	if h.b.Exists != nil {
		for _, n := range names {
			ok, err := h.b.Exists(r.Context(), n)
			if err != nil {
				h.writeErr(w, err)
				return
			}
			if ok {
				present = append(present, n)
			}
		}
	} else {
		all, err := h.b.List(r.Context())
		if err != nil {
			h.writeErr(w, err)
			return
		}
		have := make(map[string]bool, len(all))
		for _, n := range all {
			have[n] = true
		}
		for _, n := range names {
			if have[n] {
				present = append(present, n)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(present)
}

func (h *handler) delete(w http.ResponseWriter, r *http.Request) {
	if err := h.b.Delete(r.Context(), r.PathValue("name")); err != nil {
		h.writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// A StatusError is a request the server answered with a non-success
// status. Transient follows HTTP semantics: server-side failures and
// throttling retry, client errors do not.
type StatusError struct {
	Op   string // "get", "put", ...
	Name string // image name ("" for list)
	Code int
	Body string // first bytes of the response body, for diagnostics
}

func (e *StatusError) Error() string {
	msg := fmt.Sprintf("netstore: %s %q: server returned %d %s",
		e.Op, e.Name, e.Code, http.StatusText(e.Code))
	if b := strings.TrimSpace(e.Body); b != "" {
		msg += ": " + b
	}
	return msg
}

// Transient reports whether the status is worth retrying.
func (e *StatusError) Transient() bool {
	return e.Code >= 500 || e.Code == http.StatusTooManyRequests ||
		e.Code == http.StatusRequestTimeout
}

// A TransportError is a request that never got an HTTP answer: dial
// failures, connection resets, client-side timeouts. All of them are
// transient — the server may well be reachable on the next attempt.
//
// TransportError deliberately does not implement Unwrap: Go's HTTP
// client wraps per-request timeouts in context.DeadlineExceeded, which
// the crac retry predicate reads as "the caller asked to stop". A
// per-request timeout with a live caller context is exactly the case
// retries exist for, so the cause stays reachable only through Error
// text. When the caller's own context is done, the client returns that
// context error directly (not a TransportError) and no retry happens.
type TransportError struct {
	Op   string
	Name string
	Err  error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("netstore: %s %q: %v", e.Op, e.Name, e.Err)
}

// Transient reports true: transport failures are always worth a retry.
func (e *TransportError) Transient() bool { return true }

// errPutAborted closes the PUT body pipe when the request dies before
// the writer finishes, so the writer unblocks with a recognizable
// cause.
var errPutAborted = errors.New("netstore: put request aborted")

// Client speaks the netstore protocol against one base URL.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at baseURL (scheme and
// host, e.g. "http://ckpt-host:9120"; any path prefix is kept). A nil
// httpClient uses http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("netstore: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("netstore: base URL %q: scheme must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("netstore: base URL %q: missing host", baseURL)
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(u.String(), "/"), hc: httpClient}, nil
}

// BaseURL returns the server base URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

func (c *Client) imageURL(name string) string {
	return c.base + routePrefix + "/" + url.PathEscape(name)
}

// fail classifies a request that produced no HTTP response: the
// caller's own cancellation surfaces as the context error (never
// retried), anything else as a retryable TransportError.
func (c *Client) fail(ctx context.Context, op, name string, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("netstore: %s %q: %w", op, name, cerr)
	}
	return &TransportError{Op: op, Name: name, Err: err}
}

// statusErr drains and closes a non-success response into a
// StatusError (or ErrNotFound for a 404).
func statusErr(op, name string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &StatusError{Op: op, Name: name, Code: resp.StatusCode, Body: string(body)}
}

// Get opens the named image as a stream.
func (c *Client) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.imageURL(name), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, c.fail(ctx, "get", name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr("get", name, resp)
	}
	return resp.Body, nil
}

// Put streams the image produced by write to the server under name.
// The atomicity contract is the server-side store's: the body streams
// as write produces it, and the server publishes all-or-nothing. If
// write itself fails, its error is returned verbatim (so the caller
// can classify pipeline errors, not wrapped transport ones).
func (c *Client) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := write(pw)
		pw.CloseWithError(err)
		done <- err
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.imageURL(name), pr)
	if err != nil {
		pr.CloseWithError(errPutAborted)
		<-done
		return err
	}
	resp, derr := c.hc.Do(req)
	// If the request died before consuming the body (connection refused,
	// reset mid-stream), unblock the writer; harmless when the pipe is
	// already closed.
	pr.CloseWithError(errPutAborted)
	werr := <-done
	// The write func's own failures take priority over the transport
	// fallout they cause — but errors *we* caused by tearing the pipe
	// down (our abort marker, or the transport closing the request body
	// after a failed Do) are fallout, not pipeline errors.
	if werr != nil && !errors.Is(werr, errPutAborted) && !errors.Is(werr, io.ErrClosedPipe) {
		// The image pipeline itself failed; that error — not the
		// transport fallout it caused — is the one to report.
		if derr == nil {
			resp.Body.Close()
		}
		return werr
	}
	if derr != nil {
		return c.fail(ctx, "put", name, derr)
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK &&
		resp.StatusCode != http.StatusNoContent {
		return statusErr("put", name, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// List returns the server's image names in lexical order.
func (c *Client) List(ctx context.Context) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+routePrefix, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, c.fail(ctx, "list", "", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr("list", "", resp)
	}
	defer resp.Body.Close()
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		return nil, &TransportError{Op: "list", Err: fmt.Errorf("decoding response: %w", err)}
	}
	sort.Strings(names)
	return names, nil
}

// ExistsBatch reports which of the named images the server already
// holds, in one round trip. Names absent from the returned map do not
// exist server-side. Against a server predating the exists endpoint
// (404/405/501), it degrades to one List — correct, just not
// constant-cost in the store size.
func (c *Client) ExistsBatch(ctx context.Context, names []string) (map[string]bool, error) {
	have := make(map[string]bool, len(names))
	if len(names) == 0 {
		return have, nil
	}
	body, err := json.Marshal(names)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+existsRoute, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, c.fail(ctx, "exists", "", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusNotImplemented:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		all, lerr := c.List(ctx)
		if lerr != nil {
			return nil, lerr
		}
		onServer := make(map[string]bool, len(all))
		for _, n := range all {
			onServer[n] = true
		}
		for _, n := range names {
			if onServer[n] {
				have[n] = true
			}
		}
		return have, nil
	default:
		return nil, statusErr("exists", "", resp)
	}
	defer resp.Body.Close()
	var present []string
	if err := json.NewDecoder(resp.Body).Decode(&present); err != nil {
		return nil, &TransportError{Op: "exists", Err: fmt.Errorf("decoding response: %w", err)}
	}
	for _, n := range present {
		have[n] = true
	}
	return have, nil
}

// Delete removes the named image on the server.
func (c *Client) Delete(ctx context.Context, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.imageURL(name), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return c.fail(ctx, "delete", name, err)
	}
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return statusErr("delete", name, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// GetAt opens the named image for random access. One ranged GET
// resolves the size (from Content-Range, with no separate HEAD) and
// fetches the image's first head bytes (head > 0), so a small image —
// or a large one's header tables — costs one round trip in all. Every
// ReadAt beyond the head issues an independent Range request, so
// concurrent shard faults across a lazy restart each fetch exactly the
// bytes they need.
func (c *Client) GetAt(ctx context.Context, name string, head int64) (ReaderAtCloser, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.imageURL(name), nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=0-%d", head-1))
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, c.fail(ctx, "open", name, err)
	}
	var buf []byte
	size := int64(-1)
	switch resp.StatusCode {
	case http.StatusPartialContent, http.StatusRequestedRangeNotSatisfiable:
		// 416 answers a range request on an empty image: "bytes */0".
		cr := resp.Header.Get("Content-Range")
		if i := strings.LastIndexByte(cr, '/'); i >= 0 {
			if n, perr := strconv.ParseInt(cr[i+1:], 10, 64); perr == nil && n >= 0 {
				size = n
			}
		}
		if size >= 0 {
			buf = make([]byte, min(size, head))
			_, err = io.ReadFull(resp.Body, buf)
		}
	case http.StatusOK:
		// A server without Range support sends the whole image: keep it.
		buf, err = io.ReadAll(resp.Body)
		size = int64(len(buf))
	default:
		return nil, 0, statusErr("open", name, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, c.fail(ctx, "open", name, err)
	}
	if size < 0 {
		return nil, 0, &TransportError{Op: "open", Name: name,
			Err: fmt.Errorf("server reported no image size (Content-Range %q)", resp.Header.Get("Content-Range"))}
	}
	return &rangeReader{c: c, ctx: ctx, name: name, size: size, head: buf}, size, nil
}

// rangeReader is the ReaderAtCloser behind Client.GetAt. The context
// captured at GetAt time governs every ReadAt — matching the store
// contract, where the handle lives within the operation (a restart)
// that opened it. Safe for concurrent ReadAt.
type rangeReader struct {
	c    *Client
	ctx  context.Context
	name string
	size int64
	head []byte // the image's first bytes, fetched by GetAt
}

func (r *rangeReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("netstore: %q: negative read offset %d", r.name, off)
	}
	if off >= r.size {
		return 0, io.EOF
	}
	short := false
	if max := r.size - off; int64(len(p)) > max {
		p, short = p[:max], true
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off+int64(len(p)) <= int64(len(r.head)) {
		n := copy(p, r.head[off:])
		if short {
			return n, io.EOF
		}
		return n, nil
	}
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, r.c.imageURL(r.name), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+int64(len(p))-1))
	resp, err := r.c.hc.Do(req)
	if err != nil {
		return 0, r.c.fail(r.ctx, "read", r.name, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusPartialContent:
	case http.StatusOK:
		// A server without Range support replays the whole image; take
		// the slice we asked for.
		if _, err := io.CopyN(io.Discard, resp.Body, off); err != nil {
			return 0, r.c.fail(r.ctx, "read", r.name, err)
		}
	default:
		return 0, statusErr("read", r.name, resp)
	}
	n, err := io.ReadFull(resp.Body, p)
	if err != nil {
		return n, r.c.fail(r.ctx, "read", r.name, err)
	}
	if short {
		return n, io.EOF
	}
	return n, nil
}

func (r *rangeReader) Close() error { return nil }

// Bytes returns the whole image when the opening request brought all
// of it, and nil otherwise.
func (r *rangeReader) Bytes() []byte {
	if int64(len(r.head)) == r.size {
		return r.head
	}
	return nil
}
