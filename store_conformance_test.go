package crac

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"repro/internal/faults"
)

// storeFixture builds one Store implementation for the shared
// conformance suite.
type storeFixture struct {
	name  string
	build func(t *testing.T) Store
}

// conformanceFixtures covers every Store the package ships: the
// file-backed store durable (fsync barriers on, as cracrun builds it;
// the row keeps the name of the one-file store it replaced) and with
// WithNoSync, the in-memory store, the fault-injecting wrapper (with no
// faults armed — it must be transparent), the retry wrapper, and the
// HTTP client/server pair over a real loopback listener.
func conformanceFixtures() []storeFixture {
	return []storeFixture{
		{name: "FileStore", build: func(t *testing.T) Store {
			s, err := NewDirStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{name: "DirStore", build: func(t *testing.T) Store {
			s, err := NewDirStore(t.TempDir(), 0, WithNoSync())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{name: "MemStore", build: func(t *testing.T) Store {
			return NewMemStore()
		}},
		{name: "FaultStore", build: func(t *testing.T) Store {
			// No faults armed: the wrapper must behave exactly like the
			// store it wraps.
			return NewFaultStore(NewMemStore(), faults.New(faults.Config{}))
		}},
		{name: "RetryStore", build: func(t *testing.T) Store {
			return WithRetry(NewMemStore(), DefaultRetryPolicy())
		}},
		{name: "HTTPStore", build: func(t *testing.T) Store {
			srv := httptest.NewServer(ServeStore(NewMemStore()))
			t.Cleanup(srv.Close)
			s, err := NewHTTPStore(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{name: "CASStore", build: func(t *testing.T) Store {
			// Content-addressed dedup over a local backing: entries become
			// manifests + chunks, but the Store contract must be
			// indistinguishable from the backing alone.
			return NewCASStore(NewMemStore())
		}},
		{name: "CASStore-HTTP", build: func(t *testing.T) Store {
			// The deployment shape migration uses: dedup against a remote
			// store, batch-exists across real HTTP.
			srv := httptest.NewServer(ServeStore(NewMemStore()))
			t.Cleanup(srv.Close)
			s, err := NewHTTPStore(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			return NewCASStore(s)
		}},
	}
}

// TestStoreConformance runs every Store implementation through the
// same contract: Put atomicity, round-trips, overwrite, missing-name
// errors, List ordering, ranged GetAt reads, and context cancellation.
func TestStoreConformance(t *testing.T) {
	for _, fx := range conformanceFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			t.Run("RoundTrip", func(t *testing.T) { conformRoundTrip(t, fx) })
			t.Run("PutAtomic", func(t *testing.T) { conformPutAtomic(t, fx) })
			t.Run("Missing", func(t *testing.T) { conformMissing(t, fx) })
			t.Run("List", func(t *testing.T) { conformList(t, fx) })
			t.Run("GetAt", func(t *testing.T) { conformGetAt(t, fx) })
			t.Run("Cancelled", func(t *testing.T) { conformCancelled(t, fx) })
			t.Run("Len", func(t *testing.T) { conformLen(t, fx) })
			t.Run("Concurrent", func(t *testing.T) { conformConcurrent(t, fx) })
		})
	}
}

func conformPut(t *testing.T, s Store, name string, data []byte) {
	t.Helper()
	if err := s.Put(context.Background(), name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		t.Fatalf("Put(%q): %v", name, err)
	}
}

func conformGet(t *testing.T, s Store, name string) []byte {
	t.Helper()
	rc, err := s.Get(context.Background(), name)
	if err != nil {
		t.Fatalf("Get(%q): %v", name, err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("reading %q: %v", name, err)
	}
	return data
}

func conformRoundTrip(t *testing.T, fx storeFixture) {
	s := fx.build(t)
	want := bytes.Repeat([]byte("roundtrip"), 1000)
	conformPut(t, s, "img", want)
	if got := conformGet(t, s, "img"); !bytes.Equal(got, want) {
		t.Fatalf("round trip: got %d bytes, want %d", len(got), len(want))
	}
	// Overwrite replaces, never appends.
	conformPut(t, s, "img", []byte("v2"))
	if got := conformGet(t, s, "img"); string(got) != "v2" {
		t.Fatalf("after overwrite: %q, want %q", got, "v2")
	}
	if err := s.Delete(context.Background(), "img"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get(context.Background(), "img"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrImageNotFound", err)
	}
}

func conformPutAtomic(t *testing.T, fx storeFixture) {
	s := fx.build(t)
	conformPut(t, s, "img", []byte("intact"))
	boom := errors.New("pipeline failure")
	err := s.Put(context.Background(), "img", func(w io.Writer) error {
		w.Write(bytes.Repeat([]byte("torn"), 4096))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed Put = %v, want the write error back", err)
	}
	// All-or-nothing: the failed write neither replaced nor destroyed
	// the previous image.
	if got := conformGet(t, s, "img"); string(got) != "intact" {
		t.Fatalf("after failed Put: %q, want previous image intact", got)
	}
	// A failed first write publishes nothing.
	s2 := fx.build(t)
	if err := s2.Put(context.Background(), "fresh", func(w io.Writer) error {
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed Put = %v, want the write error back", err)
	}
	if _, err := s2.Get(context.Background(), "fresh"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("Get after failed Put = %v, want ErrImageNotFound", err)
	}
}

func conformMissing(t *testing.T, fx storeFixture) {
	s := fx.build(t)
	if _, err := s.Get(context.Background(), "absent"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrImageNotFound", err)
	}
	if err := s.Delete(context.Background(), "absent"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("Delete(absent) = %v, want ErrImageNotFound", err)
	}
	if _, _, err := s.GetAt(context.Background(), "absent"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("GetAt(absent) = %v, want ErrImageNotFound", err)
	}
	// Missing-image errors are deterministic, not transient: retrying
	// them would never help.
	if _, err := s.Get(context.Background(), "absent"); Transient(err) {
		t.Fatalf("Get(absent) classified transient: %v", err)
	}
}

func conformList(t *testing.T, fx storeFixture) {
	s := fx.build(t)
	names, err := s.List(context.Background())
	if err != nil {
		t.Fatalf("List on empty store: %v", err)
	}
	if len(names) != 0 {
		t.Fatalf("List on empty store = %v", names)
	}
	for _, n := range []string{"zeta", "alpha", "mid"} {
		conformPut(t, s, n, []byte(n))
	}
	names, err = s.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("List = %v, want lexical order", names)
	}
	if len(names) != 3 || names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Fatalf("List = %v, want [alpha mid zeta]", names)
	}
}

func conformGetAt(t *testing.T, fx storeFixture) {
	s := fx.build(t)
	data := make([]byte, 100_003) // odd size: exercises the tail read
	for i := range data {
		data[i] = byte(i * 7)
	}
	conformPut(t, s, "img", data)
	src, size, err := s.GetAt(context.Background(), "img")
	if err != nil {
		t.Fatalf("GetAt: %v", err)
	}
	defer src.Close()
	if size != int64(len(data)) {
		t.Fatalf("GetAt size = %d, want %d", size, len(data))
	}
	reads := []struct{ off, n int }{
		{0, 16},               // head
		{50_000, 4096},        // middle
		{len(data) - 17, 17},  // exact tail
		{len(data) - 100, 99}, // short of the tail
	}
	for _, r := range reads {
		buf := make([]byte, r.n)
		n, err := src.ReadAt(buf, int64(r.off))
		if err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d+%d): %v", r.off, r.n, err)
		}
		if n != r.n || !bytes.Equal(buf[:n], data[r.off:r.off+r.n]) {
			t.Fatalf("ReadAt(%d+%d): wrong bytes (n=%d)", r.off, r.n, n)
		}
	}
	// Reads at or past EOF report io.EOF, not an error.
	if _, err := src.ReadAt(make([]byte, 8), size); err != io.EOF {
		t.Fatalf("ReadAt(EOF) = %v, want io.EOF", err)
	}
	// A read straddling EOF returns the available bytes with io.EOF.
	buf := make([]byte, 64)
	n, err := src.ReadAt(buf, size-10)
	if n != 10 || err != io.EOF {
		t.Fatalf("ReadAt straddling EOF = (%d, %v), want (10, io.EOF)", n, err)
	}
	if !bytes.Equal(buf[:10], data[len(data)-10:]) {
		t.Fatal("ReadAt straddling EOF: wrong tail bytes")
	}
}

func conformCancelled(t *testing.T, fx storeFixture) {
	s := fx.build(t)
	conformPut(t, s, "img", []byte("x"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ops := map[string]func() error{
		"Put": func() error {
			return s.Put(ctx, "c", func(w io.Writer) error { _, err := w.Write([]byte("y")); return err })
		},
		"Get": func() error {
			rc, err := s.Get(ctx, "img")
			if err == nil {
				rc.Close()
			}
			return err
		},
		"List":   func() error { _, err := s.List(ctx); return err },
		"Delete": func() error { return s.Delete(ctx, "img") },
	}
	for name, op := range ops {
		err := op()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx = %v, want context.Canceled", name, err)
		}
		// Cancellation is the caller's own doing — never transient, or a
		// retry policy would keep hammering an abandoned operation.
		if Transient(err) {
			t.Errorf("%s cancellation classified transient: %v", name, err)
		}
	}
	// The store stays usable after cancelled calls.
	if got := conformGet(t, s, "img"); string(got) != "x" {
		t.Fatalf("after cancelled ops: %q, want %q", got, "x")
	}
}

// conformLen checks StoreLen against List on every store — the cheap
// count and the name slice must never disagree.
func conformLen(t *testing.T, fx storeFixture) {
	s := fx.build(t)
	ctx := context.Background()
	check := func(want int) {
		t.Helper()
		n, err := StoreLen(ctx, s)
		if err != nil {
			t.Fatalf("StoreLen: %v", err)
		}
		names, err := s.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n != want || n != len(names) {
			t.Fatalf("StoreLen = %d, List = %d names, want %d", n, len(names), want)
		}
	}
	check(0)
	for _, n := range []string{"a", "b", "c"} {
		conformPut(t, s, n, []byte(n))
	}
	check(3)
	if err := s.Delete(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	check(2)
}

// conformConcurrent is the concurrent-clients section: the Pool makes
// parallel store access the default, so every implementation must take
// interleaved Put/Get/List/Delete from many goroutines without torn
// reads or lost writes. Each goroutine owns a disjoint name set (the
// Pool's tenant scoping gives the same shape), so contents stay
// deterministic while the store-level operations interleave freely.
func conformConcurrent(t *testing.T, fx storeFixture) {
	s := fx.build(t)
	ctx := context.Background()
	const (
		clients = 8
		rounds  = 12
	)
	payload := func(g, round int) []byte {
		return bytes.Repeat([]byte{byte('a' + g), byte(round)}, 2048)
	}

	{
		// One name, many writers: every Put must stay atomic, so the
		// final content is exactly one writer's payload — never a splice.
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					p := payload(g, i)
					if err := s.Put(ctx, "slot", func(w io.Writer) error {
						_, err := w.Write(p)
						return err
					}); err != nil {
						errCh <- fmt.Errorf("client %d put: %w", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		got := conformGet(t, s, "slot")
		if len(got) != 4096 {
			t.Fatalf("slot is %d bytes, want 4096", len(got))
		}
		for i, b := range got {
			if b != got[i%2] {
				t.Fatalf("slot content spliced at byte %d: %#x vs %#x", i, b, got[i%2])
			}
		}
		if err := s.Delete(ctx, "slot"); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := func(i int) string { return fmt.Sprintf("c%d-%d", g, i%3) }
			for i := 0; i < rounds; i++ {
				want := payload(g, i)
				if err := s.Put(ctx, name(i), func(w io.Writer) error {
					_, err := w.Write(want)
					return err
				}); err != nil {
					errCh <- fmt.Errorf("client %d put %s: %w", g, name(i), err)
					return
				}
				rc, err := s.Get(ctx, name(i))
				if err != nil {
					errCh <- fmt.Errorf("client %d get %s: %w", g, name(i), err)
					return
				}
				got, err := io.ReadAll(rc)
				rc.Close()
				if err != nil {
					errCh <- fmt.Errorf("client %d read %s: %w", g, name(i), err)
					return
				}
				if !bytes.Equal(got, want) {
					errCh <- fmt.Errorf("client %d: %s holds wrong bytes under concurrency", g, name(i))
					return
				}
				switch {
				case i%5 == 4: // churn: drop the name just written, re-put next round
					if err := s.Delete(ctx, name(i)); err != nil {
						errCh <- fmt.Errorf("client %d delete %s: %w", g, name(i), err)
						return
					}
				case i%4 == 3: // cross-client directory traffic
					if _, err := s.List(ctx); err != nil {
						errCh <- fmt.Errorf("client %d list: %w", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Reconcile: every client re-puts its names, then the directory
	// must hold exactly clients x 3 images and Len must agree.
	for g := 0; g < clients; g++ {
		for i := 0; i < 3; i++ {
			conformPut(t, s, fmt.Sprintf("c%d-%d", g, i), payload(g, i))
		}
	}
	names, err := s.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != clients*3 {
		t.Fatalf("after churn: %d images, want %d (%v)", len(names), clients*3, names)
	}
	n, err := StoreLen(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != clients*3 {
		t.Fatalf("StoreLen after churn = %d, want %d", n, clients*3)
	}
	for g := 0; g < clients; g++ {
		for i := 0; i < 3; i++ {
			nm := fmt.Sprintf("c%d-%d", g, i)
			if got := conformGet(t, s, nm); !bytes.Equal(got, payload(g, i)) {
				t.Fatalf("%s corrupted by concurrent churn", nm)
			}
		}
	}
}

// bareStore is an inner store with none of the optional capabilities,
// just the five Store methods; capStore adds Len and ExistsBatch, and
// the retired SingleImage. Both count the calls that reach them, so the
// capability table can tell a forwarded call from a fallback.
type bareStore struct {
	m     *MemStore
	calls map[string]int
}

func newBareStore() *bareStore { return &bareStore{m: NewMemStore(), calls: map[string]int{}} }

func (b *bareStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	b.calls["Put"]++
	return b.m.Put(ctx, name, write)
}
func (b *bareStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	b.calls["Get"]++
	return b.m.Get(ctx, name)
}
func (b *bareStore) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	b.calls["GetAt"]++
	return b.m.GetAt(ctx, name)
}
func (b *bareStore) List(ctx context.Context) ([]string, error) {
	b.calls["List"]++
	return b.m.List(ctx)
}
func (b *bareStore) Delete(ctx context.Context, name string) error {
	b.calls["Delete"]++
	return b.m.Delete(ctx, name)
}

type capStore struct{ *bareStore }

func (c capStore) Len(ctx context.Context) (int, error) {
	c.calls["Len"]++
	return c.m.Len(ctx)
}
func (c capStore) ExistsBatch(ctx context.Context, names []string) (map[string]bool, error) {
	c.calls["ExistsBatch"]++
	have := make(map[string]bool, len(names))
	for _, n := range names {
		if rc, err := c.m.Get(ctx, n); err == nil {
			rc.Close()
			have[n] = true
		}
	}
	return have, nil
}
func (c capStore) SingleImage() bool {
	c.calls["SingleImage"]++
	return true
}

// TestStoreWrappersForwardCapabilities is the capability table: every
// wrapper × every capability × an inner store that has / lacks the
// optional ones. GetAt is a Store method: every wrapper forwards it to
// the inner store's own, whatever else the inner store has. An optional
// capability the inner store has must reach the inner store's own
// method through the wrapper; one it lacks must not be invented — the
// wrapper answers through the same fallback a caller applies to a bare
// store (List count, ErrUnsupported). Cells a wrapper cannot forward
// are named with the reason: there the inner method must stay untouched
// and the fallback's answer must still be exact. SingleImage is
// retired: no wrapper exposes it, and the inner method is never
// reached.
func TestStoreWrappersForwardCapabilities(t *testing.T) {
	const randomAccess, counting, batchExists, singleImage = "GetAt", "Len", "ExistsBatch", "SingleImage"
	all := map[string]bool{randomAccess: true, counting: true, batchExists: true}
	wrappers := []struct {
		name     string
		wrap     func(inner Store) Store
		forwards map[string]bool
	}{
		{"WithRetry", func(inner Store) Store { return WithRetry(inner, DefaultRetryPolicy()) }, all},
		{"NewFaultStore", func(inner Store) Store { return NewFaultStore(inner, faults.New(faults.Config{})) }, all},
		{"wrapTenantStore", func(inner Store) Store {
			return wrapTenantStore(&poolTenant{sizes: map[string]int64{}}, inner)
		}, all},
		// A read-side union view: counts and existence have no cheap
		// union, and nothing is ever chained into it.
		{"fallbackStore", func(inner Store) Store {
			return &fallbackStore{primary: inner, fallback: NewMemStore()}
		}, map[string]bool{randomAccess: true}},
		// The backing counts (and answers existence for) chunks as well
		// as images.
		{"NewCASStore", func(inner Store) Store { return NewCASStore(inner) },
			map[string]bool{randomAccess: true}},
	}
	ctx := context.Background()
	data := bytes.Repeat([]byte("capability"), 1000)
	for _, wr := range wrappers {
		for _, has := range []bool{true, false} {
			inner := newBareStore()
			var w Store
			if has {
				w = wr.wrap(capStore{inner})
			} else {
				w = wr.wrap(inner)
			}
			conformPut(t, w, "img", data)
			for k := range inner.calls {
				delete(inner.calls, k)
			}
			check := func(capability string, use func(t *testing.T, forwarded bool)) {
				t.Run(fmt.Sprintf("%s/%s/inner-has=%v", wr.name, capability, has), func(t *testing.T) {
					forwarded := (has || capability == randomAccess) && wr.forwards[capability]
					use(t, forwarded)
					if got := inner.calls[capability] > 0; got != forwarded {
						t.Fatalf("inner %s reached=%v, want %v", capability, got, forwarded)
					}
				})
			}
			check(randomAccess, func(t *testing.T, _ bool) {
				ra, size, err := w.GetAt(ctx, "img")
				if err != nil {
					t.Fatal(err)
				}
				defer ra.Close()
				got := make([]byte, size)
				if _, err := ra.ReadAt(got, 0); err != nil && err != io.EOF {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("random-access read returned wrong bytes")
				}
			})
			check(counting, func(t *testing.T, _ bool) {
				n, err := StoreLen(ctx, w)
				if err != nil || n != 1 {
					t.Fatalf("StoreLen = %d, %v; want the one image", n, err)
				}
			})
			check(batchExists, func(t *testing.T, forwarded bool) {
				have, err := existsBatch(ctx, w, []string{"img", "absent"})
				if !forwarded {
					if !errors.Is(err, errors.ErrUnsupported) {
						t.Fatalf("existsBatch = %v, %v; want ErrUnsupported, not an invented answer", have, err)
					}
					return
				}
				if err != nil || !have["img"] || have["absent"] {
					t.Fatalf("existsBatch = %v, %v", have, err)
				}
			})
			check(singleImage, func(t *testing.T, _ bool) {
				if _, ok := w.(SingleImageStore); ok {
					t.Fatal("the wrapper implements the retired SingleImageStore")
				}
			})
		}
	}
}
