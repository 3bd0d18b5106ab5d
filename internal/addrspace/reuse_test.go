package addrspace

import (
	"testing"
	"unsafe"
)

// backingOf is the address of the bytes behind the page at addr.
func backingOf(t *testing.T, s *Space, addr uint64) uintptr {
	t.Helper()
	b, err := s.ReadSlice(addr, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))
}

func mustMap(t *testing.T, s *Space, length uint64) uint64 {
	t.Helper()
	a, err := s.MMap(0, length, ProtRW, 0, HalfLower, "arena")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func expectZero(t *testing.T, s *Space, addr, length uint64) {
	t.Helper()
	got := make([]byte, length)
	if err := s.ReadAt(addr, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %#x of a fresh mapping at %#x reads %#x, want zero", i, addr, b)
		}
	}
}

// TestReuseTakesRetiredBackingWiped: a successor's mapping of the same
// length takes the backing a retired space unmapped, and reads as fresh
// memory wherever the predecessor wrote — through WriteAt and through a
// writable Slice.
func TestReuseTakesRetiredBackingWiped(t *testing.T) {
	const length = 16 * PageSize
	old := New()
	a := mustMap(t, old, length)
	if err := old.WriteAt(a+2*PageSize+7, []byte("written")); err != nil {
		t.Fatal(err)
	}
	v, err := old.Slice(a+9*PageSize, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	copy(v, "through a view")
	back := backingOf(t, old, a)
	small := mustMap(t, old, PageSize)
	old.Retire()
	if err := old.MUnmap(a, length); err != nil {
		t.Fatal(err)
	}
	if err := old.MUnmap(small, PageSize); err != nil {
		t.Fatal(err)
	}

	s := New()
	s.Reuse(old)
	other := mustMap(t, s, 2*PageSize) // no kept backing of that length
	b := mustMap(t, s, length)
	if got := backingOf(t, s, b); got != back {
		t.Fatalf("mapping of a kept length got fresh backing %#x, want the retired %#x", got, back)
	}
	expectZero(t, s, b, length)
	expectZero(t, s, other, 2*PageSize)
	// Reuse(nil) drops what is left: the small backing is not handed out.
	s.Reuse(nil)
	c := mustMap(t, s, PageSize)
	expectZero(t, s, c, PageSize)
	if s.reuse != nil {
		t.Fatal("Reuse(nil) kept backings")
	}
}

// TestReuseWipesRestoredBytes: bytes a lazy restore filled in count as
// written too.
func TestReuseWipesRestoredBytes(t *testing.T) {
	const length = 8 * PageSize
	old := New()
	a := mustMap(t, old, length)
	old.BeginLazy(func(uint64, uint64) error { return nil })
	old.MarkCold(a+5*PageSize, PageSize)
	old.FillCold(a+5*PageSize, []byte("restored"))
	old.EndLazy()
	old.Retire()
	if err := old.MUnmap(a, length); err != nil {
		t.Fatal(err)
	}
	s := New()
	s.Reuse(old)
	expectZero(t, s, mustMap(t, s, length), length)
}

// TestReuseWipesCutPieces: a piece cut off the front of a region (by a
// split or a partial unmap) is wiped whole, wherever its writes were.
func TestReuseWipesCutPieces(t *testing.T) {
	const length = 8 * PageSize
	old := New()
	a := mustMap(t, old, length)
	if err := old.WriteAt(a+length-3, []byte("end")); err != nil {
		t.Fatal(err)
	}
	if err := old.MProtect(a+4*PageSize, 4*PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := old.MUnmap(a, PageSize); err != nil { // trims the front piece's head
		t.Fatal(err)
	}
	old.Retire()
	if err := old.MUnmap(a, length); err != nil {
		t.Fatal(err)
	}
	if n := len(old.kept); n != 2 {
		t.Fatalf("retired space kept %d backings, want the 2 pieces", n)
	}
	s := New()
	s.Reuse(old)
	for _, n := range []uint64{3 * PageSize, 4 * PageSize} {
		expectZero(t, s, mustMap(t, s, n), n)
	}
}

// TestRetireKeepsNothingAnotherReaderNeeds: an active snapshot still
// reads unmapped backing, and mmap backing belongs to its space — in
// either case the retired space keeps nothing.
func TestRetireKeepsNothingAnotherReaderNeeds(t *testing.T) {
	old := New()
	a := mustMap(t, old, 4*PageSize)
	sn := old.Snapshot()
	old.Retire()
	if err := old.MUnmap(a, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	sn.Release()
	if len(old.kept) != 0 {
		t.Fatal("a space with an active snapshot kept unmapped backing")
	}

	mm := New()
	mm.SetMmapBacked(true)
	b := mustMap(t, mm, 4<<20)
	if len(mm.backings) == 0 {
		return // this platform backs every region from the heap
	}
	mm.Retire()
	if err := mm.MUnmap(b, 4<<20); err != nil {
		t.Fatal(err)
	}
	if len(mm.kept) != 0 {
		t.Fatal("an mmap-backed space kept unmapped backing")
	}
}
