package netstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// memBackend is a minimal in-memory Backend for handler tests.
type memBackend struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemBackend() *memBackend { return &memBackend{m: make(map[string][]byte)} }

var errMissing = errors.New("missing")

func (b *memBackend) backend() Backend {
	return Backend{
		GetAt: func(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
			b.mu.Lock()
			defer b.mu.Unlock()
			data, ok := b.m[name]
			if !ok {
				return nil, 0, errMissing
			}
			return nopReaderAt{bytes.NewReader(data)}, int64(len(data)), nil
		},
		Put: func(ctx context.Context, name string, write func(io.Writer) error) error {
			var buf bytes.Buffer
			if err := write(&buf); err != nil {
				return err
			}
			b.mu.Lock()
			defer b.mu.Unlock()
			b.m[name] = buf.Bytes()
			return nil
		},
		List: func(ctx context.Context) ([]string, error) {
			b.mu.Lock()
			defer b.mu.Unlock()
			var names []string
			for n := range b.m {
				names = append(names, n)
			}
			sort.Strings(names)
			return names, nil
		},
		Delete: func(ctx context.Context, name string) error {
			b.mu.Lock()
			defer b.mu.Unlock()
			if _, ok := b.m[name]; !ok {
				return errMissing
			}
			delete(b.m, name)
			return nil
		},
		IsNotFound: func(err error) bool { return errors.Is(err, errMissing) },
	}
}

type nopReaderAt struct{ *bytes.Reader }

func (nopReaderAt) Close() error { return nil }

func newPair(t *testing.T) (*memBackend, *Client, *httptest.Server) {
	t.Helper()
	b := newMemBackend()
	srv := httptest.NewServer(NewHandler(b.backend()))
	t.Cleanup(srv.Close)
	c, err := NewClient(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b, c, srv
}

func clientPut(t *testing.T, c *Client, name string, data []byte) {
	t.Helper()
	if err := c.Put(context.Background(), name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		t.Fatalf("Put(%q): %v", name, err)
	}
}

func TestClientHandlerRoundTrip(t *testing.T) {
	_, c, _ := newPair(t)
	ctx := context.Background()
	want := bytes.Repeat([]byte("payload"), 1<<12)
	clientPut(t, c, "img a", want) // space: exercises path escaping
	clientPut(t, c, "zeta", []byte("z"))

	rc, err := c.Get(ctx, "img a")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get round trip: %d bytes, err %v", len(got), err)
	}

	names, err := c.List(ctx)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != 2 || names[0] != "img a" || names[1] != "zeta" {
		t.Fatalf("List = %v", names)
	}

	if err := c.Delete(ctx, "zeta"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get(ctx, "zeta"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
	if err := c.Delete(ctx, "zeta"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Delete = %v, want ErrNotFound", err)
	}
}

func TestClientGetAtRanges(t *testing.T) {
	_, c, _ := newPair(t)
	ctx := context.Background()
	data := make([]byte, 70_001)
	for i := range data {
		data[i] = byte(i * 13)
	}
	clientPut(t, c, "img", data)

	// A 64 KiB head: the first reads come from the opening request, the
	// rest are Range requests.
	src, size, err := c.GetAt(ctx, "img", 64<<10)
	if err != nil {
		t.Fatalf("GetAt: %v", err)
	}
	defer src.Close()
	if size != int64(len(data)) {
		t.Fatalf("size = %d, want %d", size, len(data))
	}
	for _, r := range []struct{ off, n int }{{0, 1}, {1, 4096}, {65_536, 4465}, {70_000, 1}} {
		buf := make([]byte, r.n)
		if n, err := src.ReadAt(buf, int64(r.off)); n != r.n || (err != nil && err != io.EOF) {
			t.Fatalf("ReadAt(%d+%d) = (%d, %v)", r.off, r.n, n, err)
		} else if !bytes.Equal(buf, data[r.off:r.off+r.n]) {
			t.Fatalf("ReadAt(%d+%d): wrong bytes", r.off, r.n)
		}
	}
	if _, err := src.ReadAt(make([]byte, 1), size); err != io.EOF {
		t.Fatalf("ReadAt past EOF = %v, want io.EOF", err)
	}
	if n, err := src.ReadAt(make([]byte, 64), size-5); n != 5 || err != io.EOF {
		t.Fatalf("ReadAt straddling EOF = (%d, %v), want (5, io.EOF)", n, err)
	}

	if _, _, err := c.GetAt(ctx, "absent", 64<<10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetAt(absent) = %v, want ErrNotFound", err)
	}
}

// TestClientGetAtFullBodyFallback pins that rangeReader copes with a
// server that ignores Range and answers 200 with the whole body.
func TestClientGetAtFullBodyFallback(t *testing.T) {
	data := []byte("0123456789abcdef")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(data)))
		if r.Method == http.MethodHead {
			return
		}
		w.Write(data) // no Range handling at all
	}))
	defer srv.Close()
	c, err := NewClient(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, size, err := c.GetAt(context.Background(), "img", 4)
	if err != nil {
		t.Fatalf("GetAt: %v", err)
	}
	defer src.Close()
	if size != int64(len(data)) {
		t.Fatalf("size = %d", size)
	}
	buf := make([]byte, 6)
	if n, err := src.ReadAt(buf, 10); n != 6 || (err != nil && err != io.EOF) {
		t.Fatalf("ReadAt = (%d, %v)", n, err)
	}
	if string(buf) != "abcdef" {
		t.Fatalf("ReadAt via 200 fallback = %q", buf)
	}
}

// TestPutWriterErrorPriority pins that a failing image pipeline beats
// the transport fallout it causes: the caller sees its own error, not
// a broken-pipe artifact, and the server stores nothing.
func TestPutWriterErrorPriority(t *testing.T) {
	b, c, _ := newPair(t)
	boom := errors.New("pipeline exploded")
	err := c.Put(context.Background(), "img", func(w io.Writer) error {
		w.Write(bytes.Repeat([]byte("x"), 1<<16))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Put = %v, want the writer's own error", err)
	}
	b.mu.Lock()
	_, stored := b.m["img"]
	b.mu.Unlock()
	if stored {
		t.Fatal("failed Put left an image on the server")
	}
}

type transientErr interface{ Transient() bool }

// isTransient mirrors the crac retry predicate for this package's
// errors (context errors first, then the Transient method).
func isTransient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te transientErr
	return errors.As(err, &te) && te.Transient()
}

func TestStatusErrorTransient(t *testing.T) {
	for code, want := range map[int]bool{
		500: true, 502: true, 503: true, 504: true, 429: true, 408: true,
		400: false, 403: false, 404: false, 409: false, 416: false,
	} {
		e := &StatusError{Op: "get", Name: "x", Code: code}
		if e.Transient() != want {
			t.Errorf("StatusError{%d}.Transient() = %v, want %v", code, !want, want)
		}
	}
}

// TestServerErrorClassification drives real 5xx/4xx responses through
// the client and checks what the retry layer would see.
func TestServerErrorClassification(t *testing.T) {
	status := http.StatusServiceUnavailable
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "synthetic failure", status)
	}))
	defer srv.Close()
	c, err := NewClient(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	_, err = c.Get(ctx, "img")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("Get against 503 = %v, want StatusError{503}", err)
	}
	if !isTransient(err) {
		t.Fatalf("503 not classified transient: %v", err)
	}
	if se.Body == "" {
		t.Fatal("StatusError lost the diagnostic body")
	}

	status = http.StatusBadRequest
	if _, err = c.Get(ctx, "img"); isTransient(err) {
		t.Fatalf("400 classified transient: %v", err)
	}
}

// TestConnectionRefusedTransient: a dial failure (server already down)
// must classify transient so retries compose — the ECONNRESET/refused
// family of failures.
func TestConnectionRefusedTransient(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens there anymore
	c, err := NewClient(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for op, call := range map[string]func() error{
		"get":  func() error { _, err := c.Get(ctx, "img"); return err },
		"put":  func() error { return c.Put(ctx, "img", func(io.Writer) error { return nil }) },
		"list": func() error { _, err := c.List(ctx); return err },
	} {
		err := call()
		var te *TransportError
		if !errors.As(err, &te) {
			t.Fatalf("%s against dead server = %v, want TransportError", op, err)
		}
		if !isTransient(err) {
			t.Fatalf("%s dial failure not transient: %v", op, err)
		}
	}
}

// TestClientTimeoutTransient: a per-request client timeout must stay
// retryable — the HTTP client's context.DeadlineExceeded wrapping must
// not leak through TransportError and read as caller cancellation.
func TestClientTimeoutTransient(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stall until the client gives up
	}))
	defer srv.Close()
	// LIFO: unblock the stalled handler before srv.Close waits on it.
	defer close(release)
	c, err := NewClient(srv.URL, &http.Client{Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Get(context.Background(), "img")
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("timed-out Get = %v, want TransportError", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TransportError unwraps to DeadlineExceeded — retries would stop: %v", err)
	}
	if !isTransient(err) {
		t.Fatalf("client timeout not transient: %v", err)
	}
}

// TestCallerCancellationNotTransient: when the caller's own context is
// done, the client reports that context error — never a retryable one.
func TestCallerCancellationNotTransient(t *testing.T) {
	_, c, _ := newPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for op, call := range map[string]func() error{
		"get":    func() error { _, err := c.Get(ctx, "img"); return err },
		"put":    func() error { return c.Put(ctx, "img", func(io.Writer) error { return nil }) },
		"list":   func() error { _, err := c.List(ctx); return err },
		"delete": func() error { return c.Delete(ctx, "img") },
	} {
		err := call()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s with cancelled ctx = %v, want context.Canceled", op, err)
		}
		if isTransient(err) {
			t.Fatalf("%s cancellation classified transient: %v", op, err)
		}
	}
}

func TestNewClientValidation(t *testing.T) {
	for _, bad := range []string{"", "ftp://host", "http://", "not a url\x00"} {
		if _, err := NewClient(bad, nil); err == nil {
			t.Errorf("NewClient(%q) accepted an invalid base URL", bad)
		}
	}
	c, err := NewClient("http://host:9120/prefix/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.BaseURL() != "http://host:9120/prefix" {
		t.Fatalf("BaseURL = %q, want trailing slash trimmed", c.BaseURL())
	}
}

// TestExistsBatch covers the batch existence endpoint end to end: the
// present subset comes back (and nothing else), an armed Backend.Exists
// probe is preferred over List, and empty batches cost no request.
func TestExistsBatch(t *testing.T) {
	b, c, _ := newPair(t)
	ctx := context.Background()
	clientPut(t, c, "held-a", []byte("a"))
	clientPut(t, c, "held-b", []byte("b"))

	have, err := c.ExistsBatch(ctx, []string{"held-a", "absent", "held-b", "also-absent"})
	if err != nil {
		t.Fatalf("ExistsBatch: %v", err)
	}
	if len(have) != 2 || !have["held-a"] || !have["held-b"] {
		t.Fatalf("ExistsBatch = %v, want exactly the two held names", have)
	}
	if have["absent"] || have["also-absent"] {
		t.Fatalf("ExistsBatch reported absent names present: %v", have)
	}

	// Empty batch: answered locally, no round trip to fail on.
	cDead, err := NewClient("http://127.0.0.1:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	have, err = cDead.ExistsBatch(ctx, nil)
	if err != nil || len(have) != 0 {
		t.Fatalf("empty ExistsBatch = (%v, %v), want empty map, nil", have, err)
	}

	// With a dedicated probe the handler must use it, not List.
	var probed, listed int
	be := b.backend()
	innerList := be.List
	be.List = func(ctx context.Context) ([]string, error) { listed++; return innerList(ctx) }
	be.Exists = func(ctx context.Context, name string) (bool, error) {
		probed++
		b.mu.Lock()
		defer b.mu.Unlock()
		_, ok := b.m[name]
		return ok, nil
	}
	srv := httptest.NewServer(NewHandler(be))
	defer srv.Close()
	c2, err := NewClient(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	have, err = c2.ExistsBatch(ctx, []string{"held-a", "absent"})
	if err != nil {
		t.Fatalf("ExistsBatch with probe: %v", err)
	}
	if len(have) != 1 || !have["held-a"] {
		t.Fatalf("ExistsBatch with probe = %v", have)
	}
	if probed != 2 || listed != 0 {
		t.Fatalf("probe calls = %d, List calls = %d; want the probe used, List untouched", probed, listed)
	}
}

// TestExistsBatchLegacyFallback: against a server predating the exists
// endpoint the client degrades to one List and still answers correctly.
func TestExistsBatchLegacyFallback(t *testing.T) {
	b := newMemBackend()
	inner := NewHandler(b.backend())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == existsRoute {
			http.NotFound(w, r) // old server: route absent
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c, err := NewClient(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	clientPut(t, c, "kept", []byte("x"))
	have, err := c.ExistsBatch(context.Background(), []string{"kept", "gone"})
	if err != nil {
		t.Fatalf("ExistsBatch against legacy server: %v", err)
	}
	if len(have) != 1 || !have["kept"] {
		t.Fatalf("legacy fallback = %v, want {kept:true}", have)
	}
}

// TestExistsBatchOversized: a batch beyond the server limit is a hard
// 400, not a partial answer.
func TestExistsBatchOversized(t *testing.T) {
	_, c, _ := newPair(t)
	names := make([]string, maxExistsBatch+1)
	for i := range names {
		names[i] = fmt.Sprintf("n%06d", i)
	}
	_, err := c.ExistsBatch(context.Background(), names)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("oversized ExistsBatch = %v, want StatusError 400", err)
	}
}

// TestPutCopyPooled is the alloc regression for the server's PUT hot
// path: the body-staging buffer must come from putCopyPool, not be
// allocated per request. 32 uploads through an unpooled path allocate
// ≥ 32 × 256 KiB = 8 MB; pooled stays far under that.
func TestPutCopyPooled(t *testing.T) {
	h := NewHandler(Backend{
		Put: func(ctx context.Context, name string, write func(io.Writer) error) error {
			return write(io.Discard)
		},
	})
	body := bytes.Repeat([]byte("x"), 1<<20)
	upload := func() {
		req := httptest.NewRequest(http.MethodPut, "/v1/images/img", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("put status = %d", rec.Code)
		}
	}
	upload() // warm the pool
	var best uint64
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < 32; i++ {
			upload()
		}
		runtime.ReadMemStats(&after)
		d := after.TotalAlloc - before.TotalAlloc
		if round == 0 || d < best {
			best = d
		}
	}
	if best > 4<<20 {
		t.Fatalf("32 uploads allocated %d bytes (best of 5); the PUT copy buffer is not pooled", best)
	}
}
