// Copy-on-write snapshots: the read-consistent overlay behind CRAC's
// concurrent (snapshot-and-release) checkpoints.
//
// Snapshot() captures, under the write lock, the region table and the
// per-page write-generation stamps — O(metadata), no payload copying.
// From then on the first write to any page (WriteAt, writable Slice, or
// a structural unmap/replace) copies the page's pristine bytes into the
// snapshot before the mutation lands, so Snapshot.ReadAt always returns
// the bytes as of the arming instant while the application keeps
// executing. Release drops the retained pages; ReleaseRange lets a
// consumer (the checkpoint shard pipeline) drop pages incrementally as
// it finishes with them, bounding peak retention.
package addrspace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// View is the read surface of an address space that the checkpoint data
// path consumes. The live *Space implements it (blocking checkpoints),
// as does *Snapshot (concurrent checkpoints): engine and plugins written
// against View produce byte-identical images either way.
type View interface {
	// ReadAt copies len(p) bytes starting at addr into p.
	ReadAt(addr uint64, p []byte) error
	// Regions returns all mappings in address order.
	Regions() []RegionInfo
	// RegionsIn returns the mappings attributed to the given half.
	RegionsIn(h Half) []RegionInfo
	// DirtySince reports the merged dirty spans per region of the half.
	DirtySince(h Half, since uint64) []RegionDirty
	// RangeDirtySince reports whether any page overlapping the range was
	// written after the since cut.
	RangeDirtySince(addr, length, since uint64) bool
}

// RangeReleaser is implemented by views that retain copy-on-write state:
// a consumer that is finished reading [addr, addr+length) calls
// ReleaseRange so the view can drop (and stop re-copying) the pages
// fully inside the range. Reading a released range again is invalid.
type RangeReleaser interface {
	ReleaseRange(addr, length uint64)
}

var (
	_ View = (*Space)(nil)
	_ View = (*Snapshot)(nil)

	_ RangeReleaser = (*Snapshot)(nil)
)

// snapStripes is the lock striping of the preserved-page store. CoW
// traffic is at most one preservation per page per snapshot, so a small
// fixed stripe count is plenty.
const snapStripes = 64

// pagePool recycles preserved-page buffers across snapshots.
var pagePool = sync.Pool{New: func() any { return new([PageSize]byte) }}

type snapStripe struct {
	mu sync.Mutex
	// pages maps page-aligned addresses to preserved pristine bytes. A
	// nil map means the snapshot is released.
	pages map[uint64]*[PageSize]byte
}

// snapRegion is one frozen region: the arming-time metadata, a copy of
// the per-page write-generation stamps, and a reference to the region's
// backing array as of arming. The reference stays valid whatever the
// live space does: structural trims and splits re-slice the region but
// share the array, a MAP_FIXED replacement orphans it (immutable from
// then on), and every in-place write preserves the page into the
// snapshot before mutating. (Mmap-backed arrays are pinned by the
// Space itself — Snapshot.space keeps it, and so them, reachable.)
type snapRegion struct {
	RegionInfo
	gens []uint64
	data []byte
	// released holds one bit per page, set by ReleaseRange: the
	// consumer is done with the page, so writes stop preserving it.
	released []atomic.Uint64
}

// isReleased reports whether ReleaseRange has dropped page pi.
func (sr *snapRegion) isReleased(pi uint64) bool {
	return sr.released[pi/64].Load()&(1<<(pi%64)) != 0
}

// release marks pages [lo, hi) released.
func (sr *snapRegion) release(lo, hi uint64) {
	for lo < hi {
		w, b := lo/64, lo%64
		n := min(64-b, hi-lo)
		mask := ^uint64(0) >> (64 - n) << b
		sr.released[w].Or(mask)
		lo += n
	}
}

// Snapshot is a read-consistent copy-on-write view of a Space, armed by
// Space.Snapshot. Reads are safe for concurrent use with each other and
// with any Space operation. The snapshot pins arming-time bytes only
// for pages that are subsequently written; unwritten pages read through
// to the live space, so an idle snapshot costs only metadata.
//
// Reads ignore page protection: the snapshot is the checkpointer's
// privileged view (like /proc/PID/mem), so a concurrent MProtect cannot
// fail an in-flight image write.
type Snapshot struct {
	space    *Space
	regions  []snapRegion // sorted by Start
	stripes  [snapStripes]snapStripe
	released atomic.Bool
	// kept counts the pages preserved into the stripes and not yet
	// dropped, plus preservations in flight: ReleaseRange looks pages
	// up in the stripes only while it is nonzero.
	kept atomic.Int64
}

// Snapshot arms a copy-on-write snapshot of the whole space (both
// halves). It takes the write lock, so every in-flight data-plane
// operation completes before the capture: the snapshot is consistent at
// a single linearization point. The caller must Release it.
func (s *Space) Snapshot() *Snapshot {
	// Snapshot reads bypass the lazy fault gate (they copy out of the
	// frozen backing arrays directly), so a snapshot may only arm over
	// fully materialized memory. Callers that can surface the error
	// (Session.armFrozen) drain first; this drain is the best-effort
	// backstop for direct users.
	if s.coldBytes.Load() != 0 {
		_ = s.DrainLazy()
	}
	sn := &Snapshot{space: s}
	for i := range sn.stripes {
		sn.stripes[i].pages = make(map[uint64]*[PageSize]byte)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	words := 0
	for _, r := range s.regions {
		words += (len(r.gens) + 63) / 64
	}
	released := make([]atomic.Uint64, words) // every region's bitmap, one allocation
	sn.regions = make([]snapRegion, len(s.regions))
	for i, r := range s.regions {
		w := (len(r.gens) + 63) / 64
		sn.regions[i] = snapRegion{
			RegionInfo: RegionInfo{Start: r.start, Len: uint64(len(r.data)), Prot: r.prot, Half: r.half, Label: r.label},
			// No writer holds the read lock while we hold the write lock,
			// so the stamps are quiescent and a plain copy is race-free.
			gens:     append([]uint64(nil), r.gens...),
			data:     r.data,
			released: released[:w:w],
		}
		released = released[w:]
	}
	s.snaps = append(s.snaps, sn)
	return sn
}

// findRegion resolves addr against the frozen region table (sorted by
// Start), the single lookup behind covers, ReadAt, and RangeDirtySince.
func (sn *Snapshot) findRegion(addr uint64) (*snapRegion, bool) {
	idx := sort.Search(len(sn.regions), func(i int) bool {
		return sn.regions[i].Start+sn.regions[i].Len > addr
	})
	if idx >= len(sn.regions) || sn.regions[idx].Start > addr {
		return nil, false
	}
	return &sn.regions[idx], true
}

// preserve copies the pristine bytes of every page covering
// [off, off+length) of r into the snapshot, unless already preserved,
// released, or unmapped at arming time (a page outside the frozen table
// can never be read back through the snapshot). Callers hold at least
// the space's read lock and must call preserve *before* mutating the
// range — the ordering that makes Snapshot.ReadAt sound.
func (sn *Snapshot) preserve(r *region, off, length uint64) {
	if length == 0 || sn.released.Load() {
		return
	}
	first := off / PageSize
	last := (off + length - 1) / PageSize
	for pi := first; pi <= last; pi++ {
		pageOff := pi * PageSize
		if pageOff >= uint64(len(r.data)) {
			break
		}
		addr := r.start + pageOff
		sr, ok := sn.findRegion(addr)
		if !ok {
			continue
		}
		spi := (addr - sr.Start) / PageSize
		if sr.isReleased(spi) {
			continue
		}
		st := &sn.stripes[(addr/PageSize)%snapStripes]
		st.mu.Lock()
		if _, ok := st.pages[addr]; !ok && st.pages != nil {
			// Count the page before the released bit is read again:
			// ReleaseRange sets the bit before it reads kept, so either
			// this sees the bit or ReleaseRange sees the page.
			sn.kept.Add(1)
			if sr.isReleased(spi) {
				sn.kept.Add(-1)
			} else {
				end := min(pageOff+PageSize, uint64(len(r.data)))
				pg := pagePool.Get().(*[PageSize]byte)
				copy(pg[:end-pageOff], r.data[pageOff:end])
				st.pages[addr] = pg
				sn.space.retainedPages.Add(1)
			}
		}
		st.mu.Unlock()
	}
}

// ReadAt implements View: it returns the bytes of [addr, addr+len(p))
// as of the arming instant, regardless of writes since. The range must
// have been mapped at arming time. Reads ignore page protection (the
// checkpointer's privileged view) and touch no space lock: each page is
// resolved against the frozen region table, then copied under its
// stripe lock — which serializes exactly with the preserve-then-mutate
// protocol of the write paths, so a page either still carries its
// pristine bytes in the frozen backing array or its preserved copy is
// already in the stripe map.
func (sn *Snapshot) ReadAt(addr uint64, p []byte) error {
	at := addr
	remaining := p
	for len(remaining) > 0 {
		sr, ok := sn.findRegion(at)
		if !ok {
			return fmt.Errorf("%w: %#x (at snapshot time)", ErrNotMapped, at)
		}
		for len(remaining) > 0 && at < sr.Start+sr.Len {
			pageAddr := at &^ (PageSize - 1)
			po := at - pageAddr
			chunk := uint64(PageSize) - po
			if end := sr.Start + sr.Len - at; chunk > end {
				chunk = end
			}
			if chunk > uint64(len(remaining)) {
				chunk = uint64(len(remaining))
			}
			dst := remaining[:chunk]
			off := at - sr.Start
			st := &sn.stripes[(pageAddr/PageSize)%snapStripes]
			st.mu.Lock()
			if pg := st.pages[pageAddr]; pg != nil {
				copy(dst, pg[po:po+chunk])
			} else {
				copy(dst, sr.data[off:off+chunk])
			}
			st.mu.Unlock()
			remaining = remaining[chunk:]
			at += chunk
		}
	}
	return nil
}

// Regions implements View: the region table as of arming.
func (sn *Snapshot) Regions() []RegionInfo {
	out := make([]RegionInfo, len(sn.regions))
	for i := range sn.regions {
		out[i] = sn.regions[i].RegionInfo
	}
	return out
}

// RegionsIn implements View.
func (sn *Snapshot) RegionsIn(h Half) []RegionInfo {
	var out []RegionInfo
	for i := range sn.regions {
		if sn.regions[i].Half == h {
			out = append(out, sn.regions[i].RegionInfo)
		}
	}
	return out
}

// DirtySince implements View against the frozen generation stamps:
// writes after arming do not appear, so a delta written from the
// snapshot emits exactly the shards a blocking checkpoint at the arming
// point would have.
func (sn *Snapshot) DirtySince(h Half, since uint64) []RegionDirty {
	var out []RegionDirty
	for i := range sn.regions {
		sr := &sn.regions[i]
		if sr.Half != h {
			continue
		}
		rd := RegionDirty{Start: sr.Start}
		rd.Spans = genSpans(func(pi int) uint64 { return sr.gens[pi] }, len(sr.gens), sr.Len, since)
		for _, sp := range rd.Spans {
			rd.Bytes += sp.Len
		}
		if len(rd.Spans) > 0 {
			out = append(out, rd)
		}
	}
	return out
}

// RangeDirtySince implements View against the frozen stamps. Bytes not
// mapped at arming count as dirty.
func (sn *Snapshot) RangeDirtySince(addr, length, since uint64) bool {
	if length == 0 {
		return false
	}
	end := addr + length
	at := addr
	for at < end {
		sr, ok := sn.findRegion(at)
		if !ok {
			return true
		}
		stop := end
		if re := sr.Start + sr.Len; re < stop {
			stop = re
		}
		first := (at - sr.Start) / PageSize
		last := (stop - 1 - sr.Start) / PageSize
		for pi := first; pi <= last; pi++ {
			if sr.gens[pi] > since {
				return true
			}
		}
		at = sr.Start + sr.Len
	}
	return false
}

// ReleaseRange drops the preserved pages lying fully inside
// [addr, addr+length) and marks them released in their region's bitmap
// so later writes stop copying. Pages straddling the range boundaries
// are kept: a neighbouring consumer may still need them. Reading a
// released range again returns live (possibly mutated) bytes — callers
// release only what they are done with. Releasing pages no write has
// preserved sets bits and allocates nothing.
func (sn *Snapshot) ReleaseRange(addr, length uint64) {
	if length == 0 || sn.released.Load() {
		return
	}
	lo, end := (addr+PageSize-1)&^(PageSize-1), addr+length
	idx := sort.Search(len(sn.regions), func(i int) bool {
		return sn.regions[i].Start+sn.regions[i].Len > lo
	})
	var dropped int64
	for ; idx < len(sn.regions) && sn.regions[idx].Start < end; idx++ {
		sr := &sn.regions[idx]
		first := (max(lo, sr.Start) - sr.Start) / PageSize
		last := min(uint64(len(sr.gens)), (end-sr.Start)/PageSize)
		if first >= last {
			continue
		}
		sr.release(first, last)
		if sn.kept.Load() == 0 {
			continue
		}
		for pi := first; pi < last; pi++ {
			pa := sr.Start + pi*PageSize
			st := &sn.stripes[(pa/PageSize)%snapStripes]
			st.mu.Lock()
			if pg := st.pages[pa]; pg != nil {
				delete(st.pages, pa)
				pagePool.Put(pg)
				sn.kept.Add(-1)
				dropped++
			}
			st.mu.Unlock()
		}
	}
	if dropped != 0 {
		sn.space.retainedPages.Add(-dropped)
	}
}

// Release detaches the snapshot from the space (writes stop preserving
// pages for it) and drops every retained page. Idempotent.
func (sn *Snapshot) Release() {
	if sn.released.Swap(true) {
		return
	}
	s := sn.space
	s.mu.Lock()
	for i, x := range s.snaps {
		if x == sn {
			s.snaps = append(s.snaps[:i], s.snaps[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	var dropped int64
	for i := range sn.stripes {
		st := &sn.stripes[i]
		st.mu.Lock()
		for _, pg := range st.pages {
			pagePool.Put(pg)
			dropped++
		}
		st.pages = nil
		st.mu.Unlock()
	}
	if dropped != 0 {
		s.retainedPages.Add(-dropped)
	}
}

// RetainedPages counts the CoW pages currently pinned across all active
// snapshots of the space. After every snapshot is released it is zero —
// the leak check concurrent-checkpoint tests assert.
func (s *Space) RetainedPages() int64 { return s.retainedPages.Load() }

// preserveForSnapshots copies the pristine bytes of [off, off+length)
// of r into every active snapshot. Called from every mutation path with
// at least the read lock held, before the mutation.
func (s *Space) preserveForSnapshots(r *region, off, length uint64) {
	for _, sn := range s.snaps {
		sn.preserve(r, off, length)
	}
}

// preserveRangeLocked preserves whatever part of [addr, addr+length) is
// currently mapped, into every active snapshot. Called with the write
// lock held by structural ops (munmap, MAP_FIXED replace) before they
// destroy the mappings.
func (s *Space) preserveRangeLocked(addr, length uint64) {
	if len(s.snaps) == 0 {
		return
	}
	end := addr + length
	for _, r := range s.regions {
		lo, hi := r.start, r.end()
		if lo < addr {
			lo = addr
		}
		if hi > end {
			hi = end
		}
		if lo < hi {
			s.preserveForSnapshots(r, lo-r.start, hi-lo)
		}
	}
}

// Freeze gates every mutation of the space — WriteAt, writable Slice,
// MMap, MUnmap, MProtect — until Thaw: new callers block (they do not
// fail), and Freeze itself waits out mutations already in flight, so
// when it returns the space is quiescent. Reads are unaffected, so a
// checkpoint can run over a frozen space. This is the memory half of
// Session.Quiesce. Freeze does not nest — a second Freeze before Thaw
// deadlocks; callers (the Session) track their own nesting depth.
func (s *Space) Freeze() {
	s.gate.Lock()
}

// Thaw releases a Freeze, waking every blocked mutator.
func (s *Space) Thaw() {
	s.gate.Unlock()
}

// genSpans merges the pages whose stamp exceeds since into ascending
// page-granular spans, clamping the final span to dataLen. Shared by
// the live and the frozen DirtySince.
func genSpans(load func(pi int) uint64, n int, dataLen, since uint64) []Span {
	var spans []Span
	spanStart := int64(-1)
	for pi := 0; pi < n; pi++ {
		dirty := load(pi) > since
		switch {
		case dirty && spanStart < 0:
			spanStart = int64(pi)
		case !dirty && spanStart >= 0:
			spans = append(spans, Span{Off: uint64(spanStart) * PageSize,
				Len: uint64(int64(pi)-spanStart) * PageSize})
			spanStart = -1
		}
	}
	if spanStart >= 0 {
		spans = append(spans, Span{Off: uint64(spanStart) * PageSize,
			Len: uint64(int64(n)-spanStart) * PageSize})
	}
	// The final span may overhang the region end if the length is not a
	// page multiple (split regions always are; be safe anyway).
	if n := len(spans); n > 0 {
		last := &spans[n-1]
		if last.Off+last.Len > dataLen {
			last.Len = dataLen - last.Off
		}
	}
	return spans
}

// String renders a short diagnostic description.
func (sn *Snapshot) String() string {
	return fmt.Sprintf("addrspace.Snapshot{regions: %d, released: %v}", len(sn.regions), sn.released.Load())
}
