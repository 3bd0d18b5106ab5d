package crac

// Acceptance tests for incremental checkpointing (ISSUE 3): a sparse
// workload's delta images must be ≥5× smaller than full v2 images, and
// a base + k deltas chain must restore byte-identically to a full
// checkpoint taken at the same point.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/crt"
)

const (
	incrHostBufs  = 16
	incrDevAllocs = 8
	incrBufSize   = 256 << 10
)

// incrWorkload is a deterministic sparse-update workload: a few MiB of
// upper-half (cudaHostAlloc) buffers, device allocations, and one
// managed buffer touched only during setup.
type incrWorkload struct {
	rt      crt.Runtime
	host    []uint64
	dev     []uint64
	managed uint64
}

func newIncrWorkload(t testing.TB, rt crt.Runtime) *incrWorkload {
	t.Helper()
	w := &incrWorkload{rt: rt}
	for i := 0; i < incrHostBufs; i++ {
		h, err := rt.HostAlloc(incrBufSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Memset(h, byte(i+1), incrBufSize); err != nil {
			t.Fatal(err)
		}
		w.host = append(w.host, h)
	}
	for i := 0; i < incrDevAllocs; i++ {
		d, err := rt.Malloc(incrBufSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Memset(d, byte(0x40+i), incrBufSize); err != nil {
			t.Fatal(err)
		}
		w.dev = append(w.dev, d)
	}
	m, err := rt.MallocManaged(incrBufSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(m, 0x7F, incrBufSize); err != nil {
		t.Fatal(err)
	}
	w.managed = m
	return w
}

// step dirties one host buffer partially and one device allocation
// fully — well under 10% of the live regions/allocations.
func (w *incrWorkload) step(t testing.TB, round int) {
	t.Helper()
	if err := w.rt.Memset(w.host[round%incrHostBufs]+1024, byte(round), 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := w.rt.Memset(w.dev[round%incrDevAllocs], byte(round+1), incrBufSize); err != nil {
		t.Fatal(err)
	}
}

// storeImageSize reads the named image back out of the store and counts
// its bytes.
func storeImageSize(t testing.TB, store Store, name string) int64 {
	t.Helper()
	rc, err := store.Get(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	n, err := io.Copy(io.Discard, rc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestIncrementalPayloadReduction pins the acceptance bound: on a
// workload dirtying ≤10% of the live state per round, every delta image
// is at least 5× smaller than the full v2 image of the identical state.
func TestIncrementalPayloadReduction(t *testing.T) {
	full, err := New(WithShardSize(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	incr, err := New(WithShardSize(64<<10), WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer incr.Close()
	wFull := newIncrWorkload(t, full.Runtime())
	wIncr := newIncrWorkload(t, incr.Runtime())

	ctx := context.Background()
	storeFull, storeIncr := NewMemStore(), NewMemStore()
	if _, err := full.CheckpointTo(ctx, storeFull, "gen0"); err != nil {
		t.Fatal(err)
	}
	stBase, err := incr.CheckpointTo(ctx, storeIncr, "gen0")
	if err != nil {
		t.Fatal(err)
	}
	if stBase.Delta {
		t.Fatal("first incremental checkpoint must be a base")
	}

	for round := 1; round <= 4; round++ {
		wFull.step(t, round)
		wIncr.step(t, round)
		name := fmt.Sprintf("gen%d", round)
		if _, err := full.CheckpointTo(ctx, storeFull, name); err != nil {
			t.Fatal(err)
		}
		st, err := incr.CheckpointTo(ctx, storeIncr, name)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Delta || st.DeltaDepth != round {
			t.Fatalf("round %d: expected delta depth %d, got %+v", round, round, st)
		}
		if ratio := st.DirtyRatio(); ratio > 0.10 {
			t.Fatalf("round %d: dirty ratio %.3f exceeds the sparse-workload bound", round, ratio)
		}
		fullSize := storeImageSize(t, storeFull, name)
		deltaSize := storeImageSize(t, storeIncr, name)
		if deltaSize*5 > fullSize {
			t.Fatalf("round %d: delta %d bytes vs full %d bytes — less than 5× reduction", round, deltaSize, fullSize)
		}
	}
}

// snapshotRegions reads every readable region of a session's space.
func snapshotRegions(t *testing.T, s *Session) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	space := s.Space()
	for _, ri := range space.Regions() {
		if ri.Prot&addrspace.ProtRead == 0 || ri.Len == 0 {
			continue
		}
		b := make([]byte, ri.Len)
		if err := space.ReadAt(ri.Start, b); err != nil {
			t.Fatalf("reading region %v: %v", ri, err)
		}
		out[ri.Start] = b
	}
	return out
}

// TestIncrementalChainRestoresByteIdentically proves base + k deltas
// restore to exactly the state a full checkpoint captures at the same
// point — both through a same-process Restart and a cross-process
// Restore.
func TestIncrementalChainRestoresByteIdentically(t *testing.T) {
	incr, err := New(WithShardSize(64<<10), WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer incr.Close()
	w := newIncrWorkload(t, incr.Runtime())

	ctx := context.Background()
	store := NewMemStore()
	tip := "gen0"
	if _, err := incr.CheckpointTo(ctx, store, tip); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		w.step(t, round)
		tip = fmt.Sprintf("gen%d", round)
		if st, err := incr.CheckpointTo(ctx, store, tip); err != nil || !st.Delta {
			t.Fatalf("round %d: %v (delta=%v)", round, err, st.Delta)
		}
	}
	// Reference: a full, self-contained checkpoint of the same state
	// (plain Checkpoint writes outside the chain).
	var ref bytes.Buffer
	if _, err := incr.Checkpoint(ctx, &ref); err != nil {
		t.Fatal(err)
	}

	fromChain, err := RestoreFrom(ctx, store, tip)
	if err != nil {
		t.Fatalf("restoring the delta chain: %v", err)
	}
	defer fromChain.Close()
	fromFull, err := Restore(ctx, bytes.NewReader(ref.Bytes()))
	if err != nil {
		t.Fatalf("restoring the full image: %v", err)
	}
	defer fromFull.Close()

	chainSnap := snapshotRegions(t, fromChain)
	fullSnap := snapshotRegions(t, fromFull)
	if len(chainSnap) != len(fullSnap) {
		t.Fatalf("restored region sets differ: %d vs %d", len(chainSnap), len(fullSnap))
	}
	for start, b := range fullSnap {
		cb, ok := chainSnap[start]
		if !ok {
			t.Fatalf("chain restore is missing region %#x", start)
		}
		if !bytes.Equal(cb, b) {
			t.Fatalf("region %#x differs between chain and full restore", start)
		}
	}
	// Both restored sessions stay operational.
	if _, err := fromChain.Runtime().Malloc(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := fromFull.Runtime().Malloc(4096); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalRotationAndRestartReset pins the chain policy: the
// chain rotates to a fresh base after the configured number of deltas,
// and a restart always breaks the chain.
func TestIncrementalRotationAndRestartReset(t *testing.T) {
	s, err := New(WithIncremental(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	ctx := context.Background()
	store := NewMemStore()

	wantDepths := []int{0, 1, 2, 0, 1}
	for i, want := range wantDepths {
		w.step(t, i)
		st, err := s.CheckpointTo(ctx, store, fmt.Sprintf("gen%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.DeltaDepth != want || st.Delta != (want > 0) {
			t.Fatalf("checkpoint %d: depth %d (delta=%v), want %d", i, st.DeltaDepth, st.Delta, want)
		}
	}
	if err := s.RestartFrom(ctx, store, "gen4"); err != nil {
		t.Fatal(err)
	}
	st, err := s.CheckpointTo(ctx, store, "after-restart")
	if err != nil {
		t.Fatal(err)
	}
	if st.Delta {
		t.Fatal("the first checkpoint after a restart must be a base")
	}
}

// TestBareDeltaRefusesRestore pins the failure mode: a delta opened
// outside its store cannot be restored and classifies as ErrDeltaChain.
func TestBareDeltaRefusesRestore(t *testing.T) {
	s, err := New(WithIncremental(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	ctx := context.Background()
	store := NewMemStore()
	if _, err := s.CheckpointTo(ctx, store, "base"); err != nil {
		t.Fatal(err)
	}
	w.step(t, 1)
	if _, err := s.CheckpointTo(ctx, store, "delta"); err != nil {
		t.Fatal(err)
	}
	delta := conformGet(t, store, "delta")
	img, err := OpenImage(bytes.NewReader(delta))
	if err != nil {
		t.Fatalf("a bare delta must still parse for inspection: %v", err)
	}
	info := img.Info()
	if !info.Delta || info.Parent != "base" || info.Materialized {
		t.Fatalf("bare delta info wrong: %+v", info)
	}
	if err := s.Restart(ctx, bytes.NewReader(delta)); !errors.Is(err, ErrDeltaChain) {
		t.Fatalf("restoring a bare delta: got %v, want ErrDeltaChain", err)
	}
	// The parent is looked up before anything is torn down.
	if _, err := s.Runtime().Malloc(4096); err != nil {
		t.Fatalf("session unusable after a refused bare delta: %v", err)
	}
}

// TestIncrementalNameReuseWritesBase pins the ancestor-overwrite guard:
// checkpointing to a name the live chain still depends on (the classic
// fixed-name pattern) must produce a self-contained base, never a delta
// that would orphan itself by replacing its own parent.
func TestIncrementalNameReuseWritesBase(t *testing.T) {
	s, err := New(WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	ctx := context.Background()
	store := NewMemStore()
	for i := 0; i < 3; i++ {
		w.step(t, i)
		st, err := s.CheckpointTo(ctx, store, "latest")
		if err != nil {
			t.Fatal(err)
		}
		if st.Delta {
			t.Fatalf("checkpoint %d to a reused name must be a base", i)
		}
	}
	restored, err := RestoreFrom(ctx, store, "latest")
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()

	// Distinct names chain normally off the last base, and a name from
	// the live chain's ancestry again forces a base.
	w.step(t, 3)
	if st, err := s.CheckpointTo(ctx, store, "gen-a"); err != nil || !st.Delta || st.DeltaDepth != 1 {
		t.Fatalf("fresh name must chain off the base: %v (delta=%v depth=%d)", err, st.Delta, st.DeltaDepth)
	}
	w.step(t, 4)
	if st, err := s.CheckpointTo(ctx, store, "gen-b"); err != nil || !st.Delta || st.DeltaDepth != 2 {
		t.Fatalf("second fresh name must extend the chain: %v (delta=%v depth=%d)", err, st.Delta, st.DeltaDepth)
	}
	w.step(t, 5)
	if st, err := s.CheckpointTo(ctx, store, "gen-a"); err != nil || st.Delta {
		t.Fatalf("overwriting a chain ancestor must rotate to a base: %v (delta=%v)", err, st.Delta)
	}
	restored, err = RestoreFrom(ctx, store, "gen-a")
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()
}

// TestIncrementalFileStoreAlwaysBase pins the single-slot store guard:
// a FileStore backs every name with one path, so an incremental session
// must write only self-contained base images there — a delta would
// overwrite its own parent.
func TestIncrementalFileStoreAlwaysBase(t *testing.T) {
	s, err := New(WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	ctx := context.Background()
	fs := NewFileStore(filepath.Join(t.TempDir(), "one.img"))
	for i := 0; i < 3; i++ {
		w.step(t, i)
		st, err := s.CheckpointTo(ctx, fs, fmt.Sprintf("gen%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Delta {
			t.Fatalf("checkpoint %d to a FileStore must be a base", i)
		}
	}
	restored, err := RestoreFrom(ctx, fs, "gen2")
	if err != nil {
		t.Fatalf("FileStore image must stay restorable: %v", err)
	}
	restored.Close()
}

// TestStaleDeltaDetectsRewrittenParent pins the lineage identity check:
// when a chain ancestor's name is rebound to different content (a new
// base written over it), restoring an old delta that references the
// name must fail with ErrDeltaChain rather than silently mixing the
// old delta with the new parent's bytes.
func TestStaleDeltaDetectsRewrittenParent(t *testing.T) {
	s, err := New(WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	ctx := context.Background()
	store := NewMemStore()
	if _, err := s.CheckpointTo(ctx, store, "gen-a"); err != nil {
		t.Fatal(err)
	}
	w.step(t, 1)
	if st, err := s.CheckpointTo(ctx, store, "gen-b"); err != nil || !st.Delta {
		t.Fatalf("gen-b: %v (delta=%v)", err, st.Delta)
	}
	// Overwrite gen-a: the ancestor-name guard rotates this to a fresh
	// base, which replaces the content gen-b was written against.
	w.step(t, 2)
	if st, err := s.CheckpointTo(ctx, store, "gen-a"); err != nil || st.Delta {
		t.Fatalf("rewriting gen-a: %v (delta=%v)", err, st.Delta)
	}
	if _, err := OpenImageFrom(ctx, store, "gen-b"); !errors.Is(err, ErrDeltaChain) {
		t.Fatalf("stale delta against a rewritten parent: got %v, want ErrDeltaChain", err)
	}
	if _, err := RestoreFrom(ctx, store, "gen-b"); !errors.Is(err, ErrDeltaChain) {
		t.Fatalf("restore of a stale delta: got %v, want ErrDeltaChain", err)
	}
}
