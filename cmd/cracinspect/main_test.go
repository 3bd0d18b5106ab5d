package main

import (
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	crac "repro"
	"repro/internal/kernels"
)

// writeImage builds a session with a known CUDA footprint and
// checkpoints it to path (dir/name.img, through a DirStore): a chain
// base under WithIncremental, else a standalone image.
func writeImage(t *testing.T, path string, opts ...crac.Option) {
	t.Helper()
	s, err := crac.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	fat, err := rt.RegisterFatBinary(kernels.Module)
	if err != nil {
		t.Fatal(err)
	}
	for name, k := range kernels.Table() {
		if err := rt.RegisterFunction(fat, name, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.MallocManaged(1 << 16); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StreamCreate(); err != nil {
		t.Fatal(err)
	}
	store, err := crac.NewDirStore(filepath.Dir(path), 0, crac.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	name := strings.TrimSuffix(filepath.Base(path), ".img")
	if _, err := s.CheckpointTo(context.Background(), store, name); err != nil {
		t.Fatal(err)
	}
}

func runInspect(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestInspectStandaloneAndChainBase inspects a standalone image and a
// chain base and checks the dump reports the format and the active CUDA
// state; the same bytes under either retired format version (v1, v2),
// or with the retired gzip flag bit set, are refused as an unsupported
// version.
func TestInspectStandaloneAndChainBase(t *testing.T) {
	for kind, opts := range [][]crac.Option{nil, {crac.WithIncremental(2)}} {
		path := filepath.Join(t.TempDir(), "ckpt.img")
		writeImage(t, path, opts...)
		code, out, errOut := runInspect(t, path)
		if code != 0 {
			t.Fatalf("kind %d exit = %d, stderr:\n%s", kind, code, errOut)
		}
		for _, want := range []string{
			"format: CRACIMG3\n", "upper-half regions:", "crac.log",
			"fill-only spans (active mallocs): 2 (1114112 bytes)", "1048576  device\n", "65536  managed\n",
			"full image (standalone or chain root)",
			"cudaMalloc:        1 buffers (1048576 bytes)",
			"cudaMallocManaged: 1 buffers (65536 bytes)",
			"streams: 1",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("kind %d dump missing %q:\n%s", kind, want, out)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, retired := range []struct {
			name string
			at   int // the byte that retires the image: version digit or flags
			b    byte
		}{{"v1", 7, '1'}, {"v2", 7, '2'}, {"gzip", 8, raw[8] | 1}} {
			b := append([]byte(nil), raw...)
			b[retired.at] = retired.b
			os.WriteFile(path, b, 0o644)
			if code, _, errOut := runInspect(t, path); code != 1 || !strings.Contains(errOut, "unsupported format version") {
				t.Fatalf("%s image: exit=%d stderr=%q", retired.name, code, errOut)
			}
		}
	}
}

func TestInspectLogDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.img")
	writeImage(t, path)
	code, out, _ := runInspect(t, "-log", path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "log entries:") || !strings.Contains(out, "cudaMalloc") {
		t.Fatalf("-log dump missing entries:\n%s", out)
	}
}

func TestInspectErrors(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.img")
	os.WriteFile(garbage, []byte("this is not an image at all"), 0o644)
	if code, _, errOut := runInspect(t, garbage); code != 1 || !strings.Contains(errOut, "not a valid CRAC image") {
		t.Fatalf("garbage: exit=%d stderr=%q", code, errOut)
	}
	future := filepath.Join(dir, "future.img")
	os.WriteFile(future, []byte("CRACIMG9........"), 0o644)
	if code, _, errOut := runInspect(t, future); code != 1 || !strings.Contains(errOut, "unsupported format version") {
		t.Fatalf("future version: exit=%d stderr=%q", code, errOut)
	}
	if code, _, _ := runInspect(t); code != 2 {
		t.Fatalf("no args: exit=%d, want 2", code)
	}
}

// TestInspectDeltaImage inspects a v3 base and a bare delta: the base
// reports itself as a chain root; the delta reports its lineage, dirty
// ratio, and unmaterialized payload.
func TestInspectDeltaImage(t *testing.T) {
	dir := t.TempDir()
	store, err := crac.NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := crac.New(crac.WithIncremental(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	buf, err := rt.HostAlloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(buf, 0xAB, 1<<20); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.CheckpointTo(ctx, store, "base"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(buf, 0xCD, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointTo(ctx, store, "delta"); err != nil {
		t.Fatal(err)
	}

	code, out, errOut := runInspect(t, filepath.Join(dir, "base.img"))
	if code != 0 {
		t.Fatalf("base exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "format: CRACIMG3") || !strings.Contains(out, "full image (standalone or chain root)") {
		t.Fatalf("base dump missing v3/base lines:\n%s", out)
	}
	code, out, errOut = runInspect(t, filepath.Join(dir, "delta.img"))
	if code != 0 {
		t.Fatalf("delta exit = %d, stderr:\n%s", code, errOut)
	}
	for _, want := range []string{
		`delta: depth 1, parent "base"`,
		"payload not materialized",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("delta dump missing %q:\n%s", want, out)
		}
	}
}

// TestInspectHTTPStore inspects a delta chain living behind a netstore
// server: the URL form opens the image across the wire, the lineage
// walk resolves every ancestor, and -verify checks the whole chain.
func TestInspectHTTPStore(t *testing.T) {
	store := crac.NewMemStore()
	s, err := crac.New(crac.WithIncremental(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	buf, err := rt.HostAlloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, name := range []string{"gen0", "gen1", "gen2"} {
		if err := rt.Memset(buf, byte(0xA0+i), 8192); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CheckpointTo(ctx, store, name); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(crac.ServeStore(store))
	defer srv.Close()

	code, out, errOut := runInspect(t, "-verify", srv.URL+"/gen2")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	for _, want := range []string{
		`delta: depth 2, parent "gen1"`,
		"lineage:",
		"gen1", "base (chain root)",
		"chain of 3 verified across the wire: gen2 <- gen1 <- gen0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("remote dump missing %q:\n%s", want, out)
		}
	}

	if code, _, errOut := runInspect(t, srv.URL+"/absent"); code != 1 || errOut == "" {
		t.Fatalf("missing remote image: exit=%d stderr=%q", code, errOut)
	}
	if code, _, _ := runInspect(t, "http://"); code != 1 {
		t.Fatalf("malformed store URL accepted")
	}
}

// fetchCountingStore is a MemStore that counts, per name, the fetches
// made of it.
type fetchCountingStore struct {
	*crac.MemStore
	mu      sync.Mutex
	fetches map[string]int
}

func (c *fetchCountingStore) count(name string) {
	c.mu.Lock()
	c.fetches[name]++
	c.mu.Unlock()
}

func (c *fetchCountingStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	c.count(name)
	return c.MemStore.Get(ctx, name)
}

func (c *fetchCountingStore) GetAt(ctx context.Context, name string) (crac.ReaderAtCloser, int64, error) {
	c.count(name)
	return c.MemStore.GetAt(ctx, name)
}

// take returns the counts so far and starts over.
func (c *fetchCountingStore) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.fetches
	c.fetches = map[string]int{}
	return out
}

// TestInspectLineageFetchesEachAncestorOnce: inspecting the tip of a
// depth-4 chain behind a netstore server materializes the tip, then
// lists its lineage fetching each ancestor exactly once more — not once
// per hop below it.
func TestInspectLineageFetchesEachAncestorOnce(t *testing.T) {
	store := &fetchCountingStore{MemStore: crac.NewMemStore(), fetches: map[string]int{}}
	s, err := crac.New(crac.WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	buf, err := rt.HostAlloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	names := []string{"gen0", "gen1", "gen2", "gen3", "gen4"}
	for i, name := range names {
		if err := rt.Memset(buf, byte(0xA0+i), 8192); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CheckpointTo(ctx, store, name); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(crac.ServeStore(store))
	defer srv.Close()
	hs, err := crac.NewHTTPStore(srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	store.take()
	if _, err := crac.OpenImageFrom(ctx, hs, "gen4"); err != nil {
		t.Fatal(err)
	}
	materialize := store.take()
	code, out, errOut := runInspect(t, srv.URL+"/gen4")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	inspect := store.take()
	for i, name := range names {
		want := materialize[name] + 1
		if name == "gen4" {
			want = materialize[name]
		}
		if inspect[name] != want {
			t.Errorf("%s fetched %d times, want %d (%d to materialize the tip)", name, inspect[name], want, materialize[name])
		}
		if i < len(names)-1 && !strings.Contains(out, "    "+name+" ") {
			t.Errorf("lineage listing misses %s:\n%s", name, out)
		}
	}
}
