package crac

// Count-based tests for "a lazy restart reads each image byte once"
// (ISSUE 13): what the backing store is asked for, by name and in
// bytes, while a depth-15 delta chain behind a CASStore is indexed,
// restarted from lazily, and drained. Counts, not timings: they repeat
// exactly.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cas"
	"repro/internal/dmtcp"
)

// countingStore is a MemStore that tallies, per stored name, the bytes
// fetched from it: a Get counts the whole object (and as one whole
// fetch), a GetAt handle counts what each ReadAt returned (and the
// ReadAt itself).
type countingStore struct {
	*MemStore
	mu    sync.Mutex
	whole map[string]int   // Get calls
	reads map[string]int   // ReadAt calls
	bytes map[string]int64 // bytes fetched, either way
}

func newCountingStore() *countingStore {
	c := &countingStore{MemStore: NewMemStore()}
	c.reset()
	return c
}

func (c *countingStore) add(name string, n int64, whole bool) {
	c.mu.Lock()
	c.bytes[name] += n
	if whole {
		c.whole[name]++
	} else {
		c.reads[name]++
	}
	c.mu.Unlock()
}

func (c *countingStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	rc, err := c.MemStore.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	c.add(name, int64(len(data)), true)
	return io.NopCloser(bytes.NewReader(data)), nil
}

type countingReaderAt struct {
	ReaderAtCloser
	c    *countingStore
	name string
}

func (r countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.ReaderAtCloser.ReadAt(p, off)
	r.c.add(r.name, int64(n), false)
	return n, err
}

func (c *countingStore) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	ra, size, err := c.MemStore.GetAt(ctx, name)
	if err != nil {
		return nil, 0, err
	}
	return countingReaderAt{ra, c, name}, size, nil
}

// reset clears the tallies; total sums the bytes fetched, chunks only
// or everything.
func (c *countingStore) reset() {
	c.mu.Lock()
	c.whole, c.reads, c.bytes = map[string]int{}, map[string]int{}, map[string]int64{}
	c.mu.Unlock()
}

func (c *countingStore) total(chunksOnly bool) (bytes int64, wholeChunks int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, n := range c.bytes {
		if cas.IsChunkName(name) {
			wholeChunks += c.whole[name]
		} else if chunksOnly {
			continue
		}
		bytes += n
	}
	return bytes, wholeChunks
}

// onceWorkload fills every buffer with bytes no two shards share, so a
// chunk name stands for one place in one image and a second fetch of
// it is a second read of the same bytes.
type onceWorkload struct {
	s    *Session
	rng  *rand.Rand
	host []uint64
	dev  []uint64
}

const (
	onceBufSize = 256 << 10
	onceShard   = 64 << 10
	onceDepth   = 15
)

func (w *onceWorkload) scribble(t testing.TB, addr, n uint64) {
	t.Helper()
	data := make([]byte, n)
	w.rng.Read(data)
	if err := w.s.Space().WriteAt(addr, data); err != nil {
		t.Fatal(err)
	}
}

func newOnceWorkload(t testing.TB, s *Session) *onceWorkload {
	t.Helper()
	w := &onceWorkload{s: s, rng: rand.New(rand.NewSource(13))}
	rt := s.Runtime()
	alloc := func(n int, f func(uint64) (uint64, error)) []uint64 {
		var out []uint64
		for i := 0; i < n; i++ {
			a, err := f(onceBufSize)
			if err != nil {
				t.Fatal(err)
			}
			w.scribble(t, a, onceBufSize)
			out = append(out, a)
		}
		return out
	}
	w.host = alloc(8, rt.HostAlloc)
	w.dev = alloc(8, rt.Malloc)
	alloc(1, rt.MallocManaged)
	return w
}

// step dirties part of one host buffer and all of one device buffer.
func (w *onceWorkload) step(t testing.TB, round int) {
	w.scribble(t, w.host[round%len(w.host)]+4096, onceShard)
	w.scribble(t, w.dev[round%len(w.dev)], onceBufSize)
}

// storedSection reads name back whole and returns one section as that
// image carries it.
func storedSection(t *testing.T, store Store, name, section string) []byte {
	t.Helper()
	data := conformGet(t, store, name)
	ix, err := dmtcp.OpenShardIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	sec, err := ix.SectionBytes(section)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sec
}

func TestLazyRestartReadsEachByteOnce(t *testing.T) {
	for _, workers := range []int{1, 4} { // the drain takes half: one worker, then two
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx := context.Background()
			opts := []Option{WithWorkers(workers), WithIncremental(onceDepth), WithShardSize(onceShard)}
			s, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			w := newOnceWorkload(t, s)
			backing := newCountingStore()
			store := NewCASStore(backing)

			var names []string
			var live int64
			for gen := 0; gen <= onceDepth; gen++ {
				if gen > 0 {
					w.step(t, gen)
				}
				name := fmt.Sprintf("gen%02d", gen)
				st, err := s.CheckpointTo(ctx, store, name)
				if err != nil {
					t.Fatal(err)
				}
				if st.Delta != (gen > 0) {
					t.Fatalf("%s: delta=%v", name, st.Delta)
				}
				if gen == 0 {
					live = int64(st.PayloadTotal)
				}
				names = append(names, name)
			}
			tip := names[onceDepth]
			// Invariant 11's reference: the source itself, at the cut.
			want := sessionSnapshot(t, s)

			// What may legitimately be fetched how often: a chunk once per
			// place that references it.
			refs := map[string]int64{}
			length := map[string]int64{}
			for _, name := range names {
				rc, err := backing.MemStore.Get(ctx, name)
				if err != nil {
					t.Fatal(err)
				}
				man, err := cas.DecodeManifest(rc)
				rc.Close()
				if err != nil {
					t.Fatal(err)
				}
				for i := range man.Segments {
					if seg := &man.Segments[i]; seg.IsChunk() {
						refs[seg.ChunkName()]++
						length[seg.ChunkName()] = int64(seg.Length)
					}
				}
			}
			backing.reset()

			// (a) The index scan of every chain member reads the
			// manifest's inline bytes only: no chunk is touched at all.
			for _, name := range names {
				src, size, err := store.GetAt(ctx, name)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := dmtcp.OpenShardIndex(src, size); err != nil {
					t.Fatalf("OpenShardIndex(%s): %v", name, err)
				}
				src.Close()
			}
			if n, whole := backing.total(true); n != 0 || whole != 0 {
				t.Fatalf("index scan of the chain fetched %d chunk bytes (%d whole chunks), want none", n, whole)
			}
			backing.reset()

			// (b) The visible phase. The drain starts as RestartAsync
			// returns, so the tally read here can only be too high.
			p, err := s.RestartAsync(ctx, store, tip)
			if err != nil {
				t.Fatal(err)
			}
			visible, _ := backing.total(false)
			if visible*2 >= live {
				t.Fatalf("visible phase fetched %d bytes, want < 50%% of the %d live", visible, live)
			}
			if _, err := p.Wait(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if cold := s.Space().ColdBytes(); cold != 0 {
				t.Fatalf("%d bytes still cold after drain", cold)
			}

			// (c) Visible + drain: nothing beyond its allowance, and
			// all of it within 1.5× the live state.
			total, _ := backing.total(false)
			if 2*total > 3*live {
				t.Fatalf("restart fetched %d bytes in all, want <= 1.5x the %d live", total, live)
			}
			backing.mu.Lock()
			for name, got := range backing.bytes {
				if cas.IsChunkName(name) && got > refs[name]*length[name] {
					t.Errorf("chunk %s (%d bytes, %d references): %d bytes fetched", name, length[name], refs[name], got)
				}
			}
			backing.mu.Unlock()
			t.Logf("live %d: visible %d (%.0f%%), total %d (%.0f%%)",
				live, visible, 100*float64(visible)/float64(live), total, 100*float64(total)/float64(live))

			// Invariant 11: drained memory equals the state at the cut.
			if !bytes.Equal(want, sessionSnapshot(t, s)) {
				t.Fatal("restored memory differs from the state at the tip's cut")
			}
		})
	}
}

// TestWaitedRestartReadsSmallImagesWhole pins the waited restart's
// one-request rule: every chain member no larger than
// dmtcp.PrefetchChunk is fetched with exactly one ReadAt — no Get, no
// header-by-header scan, nothing read twice — while an unwaited restart
// of the same chain keeps its exact header reads.
func TestWaitedRestartReadsSmallImagesWhole(t *testing.T) {
	ctx := context.Background()
	s, d := newChainSession(t)
	store := newCountingStore()
	names := []string{"g0", "g1", "g2"}
	buildChain(t, s, d, store, names...)
	size := map[string]int64{}
	for _, name := range names {
		size[name] = int64(len(conformGet(t, store.MemStore, name)))
		if size[name] > dmtcp.PrefetchChunk {
			t.Fatalf("%s is %d bytes: the fixture must fit one read", name, size[name])
		}
	}

	store.reset()
	if err := s.RestartFrom(ctx, store, "g2"); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if store.reads[name] != 1 || store.whole[name] != 0 || store.bytes[name] != size[name] {
			t.Errorf("waited restart, %s: %d ReadAt, %d Get, %d of %d bytes; want one ReadAt of the whole image",
				name, store.reads[name], store.whole[name], store.bytes[name], size[name])
		}
	}

	store.reset()
	p, err := s.RestartAsync(ctx, store, "g2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if store.reads["g2"] < 2 {
		t.Errorf("unwaited restart read the tip in %d ReadAt; want header-exact reads", store.reads["g2"])
	}
}
