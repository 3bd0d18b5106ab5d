package crac

// Tests for the content-addressed store layer (ISSUE 9): the ≥5×
// stored-bytes reduction for mostly-identical sessions, GC safety for
// shared chunks, and full checkpoint/restore + chain verification
// through manifests.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/cas"
)

// storeTotalBytes sums the size of every entry in a store, chunks and
// manifests included.
func storeTotalBytes(t testing.TB, s Store) int64 {
	t.Helper()
	names, err := s.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range names {
		total += storeImageSize(t, s, n)
	}
	return total
}

// backingTotalBytes is storeTotalBytes over a CASStore's backing (so
// chunk entries count).
func backingTotalBytes(t testing.TB, cs *CASStore) int64 {
	t.Helper()
	return storeTotalBytes(t, cs.Backing())
}

// TestCASDedupAcrossSessions pins the headline acceptance bound: two
// sessions whose state is 97% identical, each taking three full
// checkpoints, store ≥5× fewer bytes through a CASStore than through a
// plain store.
func TestCASDedupAcrossSessions(t *testing.T) {
	ctx := context.Background()
	plain := NewMemStore()
	cstore := NewCASStore(NewMemStore())

	var sessions []*Session
	for i := 0; i < 2; i++ {
		s, err := New(WithShardSize(64<<10), WithIncremental(64))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		newIncrWorkload(t, s.Runtime())
		sessions = append(sessions, s)
	}
	// Perturb ~3% of the second session's state so the two are
	// mostly-identical, not identical: one extra allocation dirtied.
	{
		rt := sessions[1].Runtime()
		h, err := rt.HostAlloc(192 << 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Memset(h, 0x5A, 192<<10); err != nil {
			t.Fatal(err)
		}
	}

	for i, s := range sessions {
		for g := 0; g < 3; g++ {
			name := fmt.Sprintf("s%d-gen%d", i, g)
			for _, store := range []Store{plain, Store(cstore)} {
				// Rebase forces every checkpoint to a self-contained
				// base: the re-stored-per-image worst case the CAS layer
				// exists to collapse (and it keeps the two stores'
				// lineages independent).
				s.Rebase()
				if _, err := s.CheckpointTo(ctx, store, name+storeTag(store)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	plainBytes := storeTotalBytes(t, plain)
	casBytes := backingTotalBytes(t, cstore)
	if casBytes*5 > plainBytes {
		t.Fatalf("CAS stored %d bytes vs plain %d — less than the required 5× reduction (%.2fx)",
			casBytes, plainBytes, float64(plainBytes)/float64(casBytes))
	}

	// Every image reads back from the CAS store and verifies end to end.
	names, err := cstore.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("CAS store lists %d images, want 6 (chunks must stay hidden): %v", len(names), names)
	}
	for _, n := range names {
		if cas.IsChunkName(n) {
			t.Fatalf("List leaked chunk entry %q", n)
		}
		if _, err := VerifyChain(ctx, cstore, n); err != nil {
			t.Fatalf("VerifyChain(%q) over manifests: %v", n, err)
		}
	}

	// The report agrees: dedup factor well above 5 on chunk bytes.
	rep, err := DedupReport(ctx, cstore)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Manifests != 6 || rep.Chunks == 0 {
		t.Fatalf("DedupReport = %+v, want 6 manifests and chunks", rep)
	}
	if rep.Ratio() < 5 {
		t.Fatalf("DedupReport ratio %.2f, want ≥ 5", rep.Ratio())
	}
	if len(rep.Lineages) != 6 {
		t.Fatalf("DedupReport lineages = %d, want 6 bases", len(rep.Lineages))
	}
}

// storeTag distinguishes the duplicate checkpoint names written to the
// two stores in the dedup test (a session may not write the same name
// twice into one lineage namespace).
func storeTag(s Store) string {
	if _, ok := s.(*CASStore); ok {
		return "-cas"
	}
	return ""
}

// TestCASRestoreRoundTrip proves a checkpoint chain written through a
// CASStore restores byte-identically, including the lazy random-access
// path through manifests.
func TestCASRestoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	cstore := NewCASStore(NewMemStore())
	s, err := New(WithShardSize(64<<10), WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	tip := "gen0"
	if _, err := s.CheckpointTo(ctx, cstore, tip); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		w.step(t, round)
		tip = fmt.Sprintf("gen%d", round)
		if st, err := s.CheckpointTo(ctx, cstore, tip); err != nil || !st.Delta {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	want := snapshotRegions(t, s)

	restored, err := RestoreFrom(ctx, cstore, tip)
	if err != nil {
		t.Fatalf("RestoreFrom through CAS manifests: %v", err)
	}
	defer restored.Close()
	got := snapshotRegions(t, restored)
	if len(got) != len(want) {
		t.Fatalf("restored %d regions, want %d", len(got), len(want))
	}
	for start, b := range want {
		if !bytes.Equal(got[start], b) {
			t.Fatalf("region %#x differs after restore through CAS", start)
		}
	}
	if _, err := restored.Runtime().Malloc(4096); err != nil {
		t.Fatal(err)
	}
}

// TestCASGetAtThroughManifest exercises RandomAccessStore.GetAt over a
// real checkpoint image: the reconstructed random-access view must
// match the eager Get byte for byte.
func TestCASGetAtThroughManifest(t *testing.T) {
	ctx := context.Background()
	cstore := NewCASStore(NewMemStore())
	s, err := New(WithShardSize(64<<10), WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	newIncrWorkload(t, s.Runtime())
	if _, err := s.CheckpointTo(ctx, cstore, "img"); err != nil {
		t.Fatal(err)
	}
	whole := conformGet(t, cstore, "img")
	ra, size, err := cstore.GetAt(ctx, "img")
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	if size != int64(len(whole)) {
		t.Fatalf("GetAt size %d, Get size %d", size, len(whole))
	}
	// Sparse reads at shard-ish granularity, as a lazy restart would.
	for off := int64(0); off < size; off += 61 << 10 {
		n := int64(48 << 10)
		if off+n > size {
			n = size - off
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(io.NewSectionReader(ra, off, n), buf); err != nil {
			t.Fatalf("ReadAt(%d+%d): %v", off, n, err)
		}
		if !bytes.Equal(buf, whole[off:off+n]) {
			t.Fatalf("ReadAt(%d+%d): bytes differ from Get", off, n)
		}
	}
}

// TestCASGCSafety pins the GC invariant: a chunk referenced by any
// live manifest survives every GC pass; unreferenced chunks (deleted
// images, failed Puts) are swept.
func TestCASGCSafety(t *testing.T) {
	ctx := context.Background()
	cstore := NewCASStore(NewMemStore())
	s, err := New(WithShardSize(64<<10), WithIncremental(64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	newIncrWorkload(t, s.Runtime())

	// Two images sharing almost all chunks.
	for _, name := range []string{"a", "b"} {
		s.Rebase()
		if _, err := s.CheckpointTo(ctx, cstore, name); err != nil {
			t.Fatal(err)
		}
	}
	// Plus orphans from a Put that failed mid-write.
	boom := errors.New("boom")
	err = cstore.Put(ctx, "broken", func(w io.Writer) error {
		img := conformGet(t, cstore, "a")
		w.Write(img[:len(img)/2])
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed Put = %v", err)
	}
	if _, err := cstore.Get(ctx, "broken"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("failed Put published a manifest: %v", err)
	}

	wantA := conformGet(t, cstore, "a")
	st, err := cstore.GC(ctx)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if st.Manifests != 2 {
		t.Fatalf("GC scanned %d manifests, want 2", st.Manifests)
	}
	// Both images still read back identical after the sweep.
	if got := conformGet(t, cstore, "a"); !bytes.Equal(got, wantA) {
		t.Fatal("image bytes changed across GC")
	}
	if _, err := VerifyChain(ctx, cstore, "b"); err != nil {
		t.Fatalf("VerifyChain after GC: %v", err)
	}

	// Deleting one image must not break the other (shared chunks stay).
	if err := cstore.Delete(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := cstore.GC(ctx); err != nil {
		t.Fatal(err)
	}
	if got := conformGet(t, cstore, "a"); !bytes.Equal(got, wantA) {
		t.Fatal("deleting a sibling image corrupted the survivor")
	}

	// Deleting the last image lets GC empty the chunk namespace.
	if err := cstore.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	gst, err := cstore.GC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gst.Swept == 0 {
		t.Fatal("GC swept nothing after the last manifest was deleted")
	}
	left, err := cstore.Backing().List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("backing still holds %d entries after final GC: %v", len(left), left)
	}
}

// TestCASRejectsChunkNamespaceCollision: image names must not be able
// to alias chunk entries.
func TestCASRejectsChunkNamespaceCollision(t *testing.T) {
	cstore := NewCASStore(NewMemStore())
	name := cas.ChunkName([32]byte{1})
	err := cstore.Put(context.Background(), name, func(w io.Writer) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "chunk namespace") {
		t.Fatalf("Put(%q) = %v, want chunk-namespace rejection", name, err)
	}
}

// TestCASPreexistingPlainImages: a CASStore layered over a backing
// that already holds plain (pre-CAS) images serves them unchanged.
func TestCASPreexistingPlainImages(t *testing.T) {
	ctx := context.Background()
	backing := NewMemStore()
	want := []byte("plain old bytes, not a manifest")
	conformPut(t, backing, "legacy", want)
	cstore := NewCASStore(backing)
	if got := conformGet(t, cstore, "legacy"); !bytes.Equal(got, want) {
		t.Fatalf("legacy entry = %q, want %q", got, want)
	}
	ra, size, err := cstore.GetAt(ctx, "legacy")
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	buf := make([]byte, size)
	if _, err := ra.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("legacy entry differs through GetAt")
	}
}

// plainStore hides every optional capability of the store it wraps: a
// backing that is a Store and nothing more (no Len, no ExistsBatch).
type plainStore struct{ Store }

// casReaderFixture checkpoints a small session through a CASStore over
// backing — under a retired format version, raw-chunked, when retired
// is set — and returns the image as Get reassembles it, the open
// random-access handle, and the manifest's segments with their stream
// offsets.
func casReaderFixture(t *testing.T, backing Store, retired byte, opts ...Option) ([]byte, ReaderAtCloser, []cas.Segment, []int64) {
	t.Helper()
	ctx := context.Background()
	cstore := NewCASStore(backing)
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	newIncrWorkload(t, s.Runtime())
	if retired != 0 {
		putBytes(t, cstore, "img", retiredImage(sessionSnapshot(t, s), retired))
	} else if _, err := s.CheckpointTo(ctx, cstore, "img"); err != nil {
		t.Fatal(err)
	}
	whole := conformGet(t, cstore, "img")
	man, err := cas.DecodeManifest(bytes.NewReader(conformGet(t, backing, "img")))
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int64, len(man.Segments)+1)
	for i := range man.Segments {
		offs[i+1] = offs[i] + int64(man.Segments[i].Length)
	}
	ra, size, err := cstore.GetAt(ctx, "img")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ra.Close() })
	if size != int64(len(whole)) || offs[len(offs)-1] != size {
		t.Fatalf("GetAt size %d, Get size %d, manifest covers %d", size, len(whole), offs[len(offs)-1])
	}
	return whole, ra, man.Segments, offs
}

func checkReadAt(t *testing.T, ra io.ReaderAt, whole []byte, off, n int64) {
	t.Helper()
	buf := make([]byte, n)
	if got, err := ra.ReadAt(buf, off); err != nil || int64(got) != n {
		t.Fatalf("ReadAt(%d+%d) = (%d, %v)", off, n, got, err)
	}
	if !bytes.Equal(buf, whole[off:off+n]) {
		t.Fatalf("ReadAt(%d+%d): bytes differ from Get", off, n)
	}
}

// TestCASReaderAtEdges reads through a manifest where the segments meet:
// across inline→chunk→inline, exactly one chunk, a few bytes at a chunk's
// head and tail, and everything at once — over a backing with every
// optional capability and a plain Store (the "whole-fetch" rows, named
// when GetAt was optional; both now read ranges through GetAt), for a v3
// chain image and a standalone one (shard-framed: headers inline) and
// for streams under the retired v2 and v1 versions (raw 256 KiB chunks,
// so headers sit inside chunks and shard reads straddle them).
func TestCASReaderAtEdges(t *testing.T) {
	backings := []struct {
		name  string
		build func() Store
	}{
		{"ranged", func() Store { return NewMemStore() }},
		{"whole-fetch", func() Store { return plainStore{NewMemStore()} }},
	}
	formats := []struct {
		name    string
		opts    []Option
		retired byte
	}{
		{"v3", []Option{WithShardSize(64 << 10), WithIncremental(8)}, 0},
		{"standalone", []Option{WithShardSize(64 << 10)}, 0},
		{"v2", []Option{WithShardSize(96 << 10)}, '2'},
		{"v1", nil, '1'},
	}
	for _, bk := range backings {
		for _, f := range formats {
			t.Run(bk.name+"/"+f.name, func(t *testing.T) {
				whole, ra, segs, offs := casReaderFixture(t, bk.build(), f.retired, f.opts...)
				size := int64(len(whole))
				chunks, inlineBetween := 0, false
				for i := range segs {
					if !segs[i].IsChunk() {
						continue
					}
					chunks++
					lo, hi := offs[i], offs[i+1]
					checkReadAt(t, ra, whole, lo, hi-lo)         // exactly the chunk
					checkReadAt(t, ra, whole, lo, min(7, hi-lo)) // its head
					checkReadAt(t, ra, whole, max(lo, hi-7), hi-max(lo, hi-7))
					if i > 0 && i+1 < len(segs) && !segs[i-1].IsChunk() && !segs[i+1].IsChunk() {
						inlineBetween = true
						checkReadAt(t, ra, whole, lo-3, hi-lo+6) // inline→chunk→inline
					}
					if i+2 < len(segs) {
						// Tail of this segment through the head of the one
						// after next: at least two boundaries.
						checkReadAt(t, ra, whole, hi-5, offs[i+2]-hi+10)
					}
				}
				if chunks < 4 {
					t.Fatalf("fixture has %d chunks; want several", chunks)
				}
				if (f.retired == 0) != inlineBetween {
					t.Fatalf("%s: chunk between inline segments seen = %v", f.name, inlineBetween)
				}
				checkReadAt(t, ra, whole, 0, size)
				// Straddling the end: the available bytes with io.EOF.
				buf := make([]byte, 64)
				if n, err := ra.ReadAt(buf, size-10); n != 10 || err != io.EOF || !bytes.Equal(buf[:10], whole[size-10:]) {
					t.Fatalf("ReadAt straddling EOF = (%d, %v)", n, err)
				}
			})
		}
	}
}

// TestCASLazyRestartLegacyFormats restarts lazily from images held by
// a CASStore. A standalone image is shard-framed like a chain image, so
// every shard is one chunk. The v1 and v2 rows store it under a retired
// format version, which the chunker keeps as raw chunks: the restart
// reads its magic through a partial chunk read and refuses it before
// teardown, leaving the session as it was.
func TestCASLazyRestartLegacyFormats(t *testing.T) {
	for _, retired := range []byte{0, '1', '2'} {
		name := "standalone"
		if retired != 0 {
			name = "v" + string(retired)
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			cstore := NewCASStore(NewMemStore())
			s, err := New(WithShardSize(96 << 10))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			newIncrWorkload(t, s.Runtime())
			if _, err := s.CheckpointTo(ctx, cstore, "img"); err != nil {
				t.Fatal(err)
			}
			want := sessionSnapshot(t, s) // the state at the cut
			if retired != 0 {
				putBytes(t, cstore, "img", retiredImage(conformGet(t, cstore, "img"), retired))
				if _, err := s.RestartAsync(ctx, cstore, "img"); !errors.Is(err, ErrUnsupportedVersion) {
					t.Fatalf("RestartAsync from a retired image = %v, want ErrUnsupportedVersion", err)
				}
				if !bytes.Equal(want, sessionSnapshot(t, s)) {
					t.Fatal("a refused restart changed the session")
				}
				return
			}
			p, err := s.RestartAsync(ctx, cstore, "img")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Wait(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if !bytes.Equal(want, sessionSnapshot(t, s)) {
				t.Fatal("restart through CAS chunks differs from the state at the cut")
			}
		})
	}
}

// TestCASReaderAtCorruptChunk: a chunk that is missing, or whose stored
// length is not the manifest's, is ErrCorruptImage whether the read
// wants the whole chunk or a range of it, over a backing with every
// optional capability and over a plain Store (the ranged=false rows).
func TestCASReaderAtCorruptChunk(t *testing.T) {
	ctx := context.Background()
	damage := []struct {
		name string
		do   func(t *testing.T, backing Store, chunk string, data []byte)
	}{
		{"missing", func(t *testing.T, backing Store, chunk string, _ []byte) {
			if err := backing.Delete(ctx, chunk); err != nil {
				t.Fatal(err)
			}
		}},
		{"short", func(t *testing.T, backing Store, chunk string, data []byte) {
			conformPut(t, backing, chunk, data[:len(data)-1])
		}},
		{"long", func(t *testing.T, backing Store, chunk string, data []byte) {
			conformPut(t, backing, chunk, append(append([]byte(nil), data...), 0))
		}},
	}
	for _, ranged := range []bool{true, false} {
		for _, d := range damage {
			t.Run(fmt.Sprintf("ranged=%v/%s", ranged, d.name), func(t *testing.T) {
				var backing Store = NewMemStore()
				if !ranged {
					backing = plainStore{backing}
				}
				whole, ra, segs, offs := casReaderFixture(t, backing, 0, WithShardSize(64<<10), WithIncremental(8))
				i := 0
				for !segs[i].IsChunk() || segs[i].Length < 1024 {
					i++
				}
				lo, hi := offs[i], offs[i+1]
				d.do(t, backing, segs[i].ChunkName(), whole[lo:hi])
				reads := map[string][2]int64{
					"whole chunk": {lo, hi - lo},
					"head":        {lo, 100},
					"tail":        {hi - 100, 100},
					"across":      {lo - 3, hi - lo + 6},
				}
				for what, r := range reads {
					_, err := ra.ReadAt(make([]byte, r[1]), r[0])
					if !errors.Is(err, ErrCorruptImage) {
						t.Errorf("%s read of a %s chunk: %v, want ErrCorruptImage", what, d.name, err)
					}
				}
				// Its neighbours still read.
				checkReadAt(t, ra, whole, offs[i+1], offs[i+2]-offs[i+1])
			})
		}
	}
}
