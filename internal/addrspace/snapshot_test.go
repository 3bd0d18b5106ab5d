package addrspace

import (
	"bytes"
	"sync"
	"testing"
)

// mapFilled maps a region in the upper window and fills it with b.
func mapFilled(t *testing.T, s *Space, size uint64, b byte) uint64 {
	t.Helper()
	addr, err := s.MMap(0, size, ProtRW, 0, HalfUpper, "snap-test")
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{b}, int(size))
	if err := s.WriteAt(addr, buf); err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestSnapshotReadConsistency: a snapshot returns arming-time bytes for
// pages written after arming, and live bytes track the writes.
func TestSnapshotReadConsistency(t *testing.T) {
	s := New()
	addr := mapFilled(t, s, 8*PageSize, 0x11)
	sn := s.Snapshot()
	defer sn.Release()

	// Overwrite some pages, twice (the second write must not re-preserve
	// mutated bytes).
	if err := s.WriteAt(addr+PageSize, bytes.Repeat([]byte{0x22}, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(addr+PageSize, bytes.Repeat([]byte{0x33}, PageSize)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8*PageSize)
	if err := sn.ReadAt(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x11}, 8*PageSize)) {
		t.Fatal("snapshot does not show arming-time bytes")
	}
	live := make([]byte, PageSize)
	if err := s.ReadAt(addr+PageSize, live); err != nil {
		t.Fatal(err)
	}
	if live[0] != 0x33 {
		t.Fatal("live space does not show the latest write")
	}
	if n := s.RetainedPages(); n != 2 {
		t.Fatalf("retained %d pages, want 2", n)
	}
	sn.Release()
	if n := s.RetainedPages(); n != 0 {
		t.Fatalf("retained %d pages after release, want 0", n)
	}
}

// TestSnapshotWritableSliceAndUnmap: a writable Slice preserves at
// acquisition, and unmapping (or MAP_FIXED-replacing) a region keeps
// its snapshot bytes readable.
func TestSnapshotWritableSliceAndUnmap(t *testing.T) {
	s := New()
	a := mapFilled(t, s, 4*PageSize, 0x41)
	b := mapFilled(t, s, 4*PageSize, 0x42)
	sn := s.Snapshot()
	defer sn.Release()

	sl, err := s.Slice(a, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sl {
		sl[i] = 0xEE
	}
	if err := s.MUnmap(b, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	// Remap the freed range with different content.
	if _, err := s.MMap(b, 4*PageSize, ProtRW, MapFixed, HalfUpper, "replacement"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(b, bytes.Repeat([]byte{0xDD}, 4*PageSize)); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, PageSize)
	if err := sn.ReadAt(a, got); err != nil {
		t.Fatal(err)
	}
	if got[7] != 0x41 {
		t.Fatal("slice write leaked into the snapshot")
	}
	if err := sn.ReadAt(b, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x42 {
		t.Fatalf("unmapped region's snapshot bytes lost: got %#x", got[0])
	}
}

// TestSnapshotFrozenDirtyTracking: DirtySince and RangeDirtySince on a
// snapshot reflect the stamps at arming — post-arming writes are
// invisible, which is what makes an overlapped delta byte-identical to
// a blocking one.
func TestSnapshotFrozenDirtyTracking(t *testing.T) {
	s := New()
	addr := mapFilled(t, s, 8*PageSize, 0x01)
	cut := s.CutEpoch()
	if err := s.WriteAt(addr, []byte{0x02}); err != nil { // dirty page 0 after the cut
		t.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Release()
	// Post-arming write: must not show up in the frozen dirty set.
	if err := s.WriteAt(addr+4*PageSize, []byte{0x03}); err != nil {
		t.Fatal(err)
	}

	rds := sn.DirtySince(HalfUpper, cut)
	if len(rds) != 1 || rds[0].Bytes != PageSize {
		t.Fatalf("frozen dirty set: %+v, want exactly page 0", rds)
	}
	if !sn.RangeDirtySince(addr, PageSize, cut) {
		t.Fatal("page 0 should be dirty in the frozen view")
	}
	if sn.RangeDirtySince(addr+4*PageSize, PageSize, cut) {
		t.Fatal("post-arming write leaked into the frozen dirty view")
	}
	if !s.RangeDirtySince(addr+4*PageSize, PageSize, cut) {
		t.Fatal("live view must see the post-arming write")
	}
}

// TestSnapshotReleaseRange: interior pages drop and are marked
// released (no re-preservation); boundary pages survive for neighbours.
func TestSnapshotReleaseRange(t *testing.T) {
	s := New()
	addr := mapFilled(t, s, 8*PageSize, 0x10)
	sn := s.Snapshot()
	defer sn.Release()
	if err := s.WriteAt(addr, bytes.Repeat([]byte{0x99}, 8*PageSize)); err != nil {
		t.Fatal(err)
	}
	if n := s.RetainedPages(); n != 8 {
		t.Fatalf("retained %d, want 8", n)
	}
	// Release an unaligned range: [addr+100, addr+3.5 pages). Only pages
	// 1 and 2 are fully inside.
	sn.ReleaseRange(addr+100, 3*PageSize+PageSize/2-100)
	if n := s.RetainedPages(); n != 6 {
		t.Fatalf("retained %d after interior release, want 6", n)
	}
	// Boundary pages still serve snapshot bytes.
	got := make([]byte, 1)
	if err := sn.ReadAt(addr, got); err != nil || got[0] != 0x10 {
		t.Fatalf("boundary page lost: %v %#x", err, got[0])
	}
	// A released page is not re-preserved by further writes.
	if err := s.WriteAt(addr+PageSize, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	if n := s.RetainedPages(); n != 6 {
		t.Fatalf("released page was re-preserved: retained %d", n)
	}
}

// TestSnapshotReleaseRangeAcrossRegions releases a range spanning two
// regions, each wider than one bitmap word, with no page preserved:
// exactly the released pages stop being preserved, and releasing them
// allocates nothing.
func TestSnapshotReleaseRangeAcrossRegions(t *testing.T) {
	s := New()
	const pages = 150
	a := mapFilled(t, s, pages*PageSize, 0x10)
	b := mapFilled(t, s, pages*PageSize, 0x20)
	if b != a+pages*PageSize {
		t.Skipf("regions not adjacent: %#x, %#x", a, b)
	}
	sn := s.Snapshot()
	defer sn.Release()
	// Pages 70..229 of the pair, half a page in from each end.
	lo, hi := a+70*PageSize-PageSize/2, a+230*PageSize+PageSize/2
	if n := testing.AllocsPerRun(10, func() { sn.ReleaseRange(lo, hi-lo) }); n != 0 {
		t.Fatalf("ReleaseRange of unpreserved pages allocated %.0f times", n)
	}
	if err := s.WriteAt(a, bytes.Repeat([]byte{0x99}, 2*pages*PageSize)); err != nil {
		t.Fatal(err)
	}
	if n, want := s.RetainedPages(), int64(2*pages-160); n != want {
		t.Fatalf("retained %d pages after writing both regions, want %d", n, want)
	}
	got := make([]byte, 1)
	for _, pa := range []uint64{a + 69*PageSize, a + 230*PageSize} {
		if err := sn.ReadAt(pa, got); err != nil || got[0] != byte(0x10+0x10*((pa-a)/(pages*PageSize))) {
			t.Fatalf("page %#x next to the released range lost its snapshot bytes: %v %#x", pa, err, got[0])
		}
	}
}

// TestSnapshotTorture hammers the space with concurrent writers while a
// reader repeatedly verifies the snapshot still reads the arming-time
// pattern. Meant to run under -race.
func TestSnapshotTorture(t *testing.T) {
	s := New()
	const pages = 64
	addr := mapFilled(t, s, pages*PageSize, 0x5A)
	sn := s.Snapshot()
	defer sn.Release()

	quit := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(g + 1)}, PageSize/2)
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				// Each writer owns a disjoint half-page slot within its
				// stripe of pages; pages are shared between iterations.
				page := uint64((i*4 + g) % pages)
				if err := s.WriteAt(addr+page*PageSize+uint64(g%2)*PageSize/2, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	want := bytes.Repeat([]byte{0x5A}, pages*PageSize)
	got := make([]byte, pages*PageSize)
	for i := 0; i < 50; i++ {
		if err := sn.ReadAt(addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("snapshot read saw post-arming bytes")
		}
	}
	close(quit)
	wg.Wait()
	sn.Release()
	if n := s.RetainedPages(); n != 0 {
		t.Fatalf("retained %d pages after release", n)
	}
}

// TestSnapshotSkipsPostArmingRegions: writes into regions mapped after
// arming must not be preserved — the snapshot can never read them, so
// retaining copies would double the memory cost of allocate-and-fill
// workloads during the overlap.
func TestSnapshotSkipsPostArmingRegions(t *testing.T) {
	s := New()
	old := mapFilled(t, s, 2*PageSize, 0x12)
	sn := s.Snapshot()
	defer sn.Release()
	fresh, err := s.MMap(0, 64*PageSize, ProtRW, 0, HalfUpper, "post-arming")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(fresh, bytes.Repeat([]byte{0xFF}, 64*PageSize)); err != nil {
		t.Fatal(err)
	}
	if n := s.RetainedPages(); n != 0 {
		t.Fatalf("post-arming region writes retained %d pages, want 0", n)
	}
	// Arming-time regions still preserve normally.
	if err := s.WriteAt(old, []byte{0x99}); err != nil {
		t.Fatal(err)
	}
	if n := s.RetainedPages(); n != 1 {
		t.Fatalf("retained %d, want 1", n)
	}
	got := make([]byte, 1)
	if err := sn.ReadAt(old, got); err != nil || got[0] != 0x12 {
		t.Fatalf("arming-time bytes lost: %v %#x", err, got[0])
	}
}

// TestFreezeThawGate: Freeze blocks writers and structural ops (but not
// reads) until Thaw.
func TestFreezeThawGate(t *testing.T) {
	s := New()
	addr := mapFilled(t, s, 2*PageSize, 0x21)
	s.Freeze()
	done := make(chan error, 2)
	go func() { done <- s.WriteAt(addr, []byte{1}) }()
	go func() { _, err := s.MMap(0, PageSize, ProtRW, 0, HalfUpper, "late"); done <- err }()
	select {
	case <-done:
		t.Fatal("mutation proceeded while frozen")
	default:
	}
	// Reads pass through a frozen space.
	b := make([]byte, 8)
	if err := s.ReadAt(addr, b); err != nil {
		t.Fatal(err)
	}
	s.Thaw()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWritersRaceSamePagePreserve: two goroutines write disjoint halves
// of the same page concurrently; the snapshot must keep the whole
// page's pristine bytes whichever writer preserves first.
func TestWritersRaceSamePagePreserve(t *testing.T) {
	s := New()
	addr := mapFilled(t, s, PageSize, 0x33)
	for round := 0; round < 100; round++ {
		sn := s.Snapshot()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := bytes.Repeat([]byte{byte(0xB0 + g)}, PageSize/2)
				if err := s.WriteAt(addr+uint64(g)*PageSize/2, buf); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
		got := make([]byte, PageSize)
		if err := sn.ReadAt(addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0x33}, PageSize)) {
			t.Fatalf("round %d: snapshot lost pristine page", round)
		}
		sn.Release()
		// Restore the pristine pattern for the next round.
		if err := s.WriteAt(addr, bytes.Repeat([]byte{0x33}, PageSize)); err != nil {
			t.Fatal(err)
		}
	}
}
