// Package addrspace simulates a single Linux process virtual address space
// shared by a "host" (CPU) and a "device" (GPU), as required by CUDA's
// Unified Virtual Addressing (UVA).
//
// The space is divided into two windows, mirroring CRAC's split-process
// design (Jain & Cooperman, SC'20, Section 3.1):
//
//   - the lower half holds the helper program and the active CUDA library,
//     including the device, pinned and managed allocation arenas;
//   - the upper half holds the checkpointed application.
//
// Regions are page-granular mappings with protection bits, created with
// MMap and destroyed with MUnmap, like the kernel primitives CRAC
// interposes on. MapsView reproduces the /proc/PID/maps behaviour that
// complicates checkpointing (Section 3.2.2): adjacent regions with equal
// protection are presented merged, losing the upper/lower attribution,
// which is why CRAC keeps its own per-region bookkeeping.
package addrspace

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// Prot is a bitmask of page protection flags.
type Prot uint8

// Protection bits, mirroring PROT_READ/PROT_WRITE/PROT_EXEC.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec

	ProtNone Prot = 0
	ProtRW        = ProtRead | ProtWrite
)

// String renders the protection like a /proc/PID/maps permission column.
func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Half identifies which half of the split process owns a mapping.
type Half uint8

// Halves of the split process.
const (
	HalfUnknown Half = iota
	HalfLower
	HalfUpper
	// HalfMixed marks a merged maps-view entry that spans both halves;
	// it is the attribution hazard described in the paper (Section 3.2.2).
	HalfMixed
)

// String names the half.
func (h Half) String() string {
	switch h {
	case HalfLower:
		return "lower"
	case HalfUpper:
		return "upper"
	case HalfMixed:
		return "mixed"
	default:
		return "unknown"
	}
}

// MapFlags alter MMap behaviour.
type MapFlags uint8

// Mapping flags.
const (
	// MapFixed places the mapping exactly at the hint address, silently
	// replacing any existing mapping in the range — the Linux MAP_FIXED
	// semantics whose corruption hazard Section 3.2.2 describes.
	MapFixed MapFlags = 1 << iota
	// MapFixedNoReplace places the mapping exactly at the hint address but
	// fails if any byte of the range is already mapped.
	MapFixedNoReplace
)

// Window is a half-open address range [Start, End).
type Window struct {
	Start, End uint64
}

// Contains reports whether [addr, addr+length) lies inside the window.
func (w Window) Contains(addr, length uint64) bool {
	return addr >= w.Start && addr+length <= w.End && addr+length >= addr
}

// Size returns the window length in bytes.
func (w Window) Size() uint64 { return w.End - w.Start }

// Default window layout. The absolute values are arbitrary; what matters
// is that the two windows are disjoint and the lower half is below the
// upper half, as in CRAC.
const (
	DefaultLowerStart = 0x0000_1000_0000
	DefaultLowerEnd   = 0x0000_9000_0000 // 2 GiB lower window
	DefaultUpperStart = 0x0000_a000_0000
	DefaultUpperEnd   = 0x0001_2000_0000 // 2 GiB upper window
)

// Errors returned by Space operations.
var (
	ErrUnaligned   = errors.New("addrspace: address or length not page-aligned")
	ErrZeroLength  = errors.New("addrspace: zero length")
	ErrNoSpace     = errors.New("addrspace: no free range in window")
	ErrOutOfWindow = errors.New("addrspace: address outside the half's window")
	ErrOverlap     = errors.New("addrspace: range overlaps an existing mapping")
	ErrNotMapped   = errors.New("addrspace: address range not fully mapped")
	ErrPerm        = errors.New("addrspace: protection does not permit access")
	ErrSplitRange  = errors.New("addrspace: range spans multiple regions")
)

// region is a live mapping. data always has length Len. gens holds one
// write-generation stamp per page (len(data)/PageSize entries): the
// value of the space's write epoch when the page was last written. A
// freshly inserted region is stamped with the current epoch — its bytes
// did not exist at any earlier epoch, so every incremental consumer must
// treat them as dirty. Stamps are written with atomic stores (writers
// hold only the read lock, and two writers to disjoint byte ranges may
// share a page) and read with atomic loads.
type region struct {
	start uint64
	prot  Prot
	half  Half
	label string
	data  []byte
	gens  []uint64
	// hw bounds what has been written: data[hw:] is still the zeros the
	// mapping started with. Only a retired backing's wipe (Reuse) reads
	// it, so a piece cut off the front of a region conservatively counts
	// as written throughout.
	hw atomic.Uint64
}

func (r *region) end() uint64 { return r.start + uint64(len(r.data)) }

// touch raises the written bound to end (an offset into data).
func (r *region) touch(end uint64) {
	for {
		hw := r.hw.Load()
		if end <= hw || r.hw.CompareAndSwap(hw, end) {
			return
		}
	}
}

// cut returns a region for data[off:] of r, counted as written
// throughout (see hw).
func (r *region) cut(start, off uint64) *region {
	c := &region{start: start, prot: r.prot, half: r.half, label: r.label,
		data: r.data[off:], gens: r.gens[off/PageSize:]}
	c.hw.Store(uint64(len(c.data)))
	return c
}

// RegionInfo is a read-only snapshot of a mapping.
type RegionInfo struct {
	Start uint64
	Len   uint64
	Prot  Prot
	Half  Half
	Label string
}

// End returns the exclusive end address.
func (ri RegionInfo) End() uint64 { return ri.Start + ri.Len }

// String renders the region in a /proc/PID/maps-like format.
func (ri RegionInfo) String() string {
	return fmt.Sprintf("%012x-%012x %s %-6s %s", ri.Start, ri.End(), ri.Prot, ri.Half, ri.Label)
}

// Space is a simulated process address space. All methods are safe for
// concurrent use.
//
// Concurrency contract: structural operations (MMap, MUnmap, MProtect)
// take the write lock and are fully serialized. Data-plane operations
// (ReadAt, WriteAt, Slice) take only the read lock: they never mutate the
// region list, so any number of them may run concurrently — this is what
// lets the checkpoint/restart pipeline drain and refill many regions in
// parallel. Concurrent ReadAt/WriteAt calls over *non-overlapping* byte
// ranges are race-free. Overlapping concurrent accesses race on the
// payload bytes exactly as racing loads/stores on real memory would; the
// region bookkeeping itself stays consistent either way.
type Space struct {
	mu      sync.RWMutex
	regions []*region // sorted by start, non-overlapping
	lower   Window
	upper   Window
	aslr    bool
	rng     *rand.Rand

	// epoch is the current write epoch, starting at 1. Writes stamp the
	// pages they touch with the current epoch; CutEpoch advances it.
	// epoch only changes under the write lock, so data-plane operations
	// (which hold the read lock) see a stable value.
	epoch uint64

	// snaps are the active copy-on-write snapshots. Mutated only under
	// the write lock; data-plane writers (read lock) iterate it to
	// preserve pristine pages before mutating (see snapshot.go).
	snaps         []*Snapshot
	retainedPages atomic.Int64 // CoW pages pinned across all snapshots

	// Freeze/Thaw write gate (Session.Quiesce): every mutation path
	// holds the read side for its whole critical section, and Freeze
	// takes the write side — so Freeze both bars new mutations and waits
	// out in-flight ones. Independent of mu, and acquired before it, so
	// blocked mutators hold no lock a reader or checkpointer needs.
	gate sync.RWMutex

	// Lazy-restart fault gate (lazy.go): coldBytes is the data-plane
	// fast-path check (zero = no lazy restart in flight), lazyG the
	// cold-page set and materializer under lazyMu. Lock order: mu (any
	// mode) may be taken before lazyMu, never the reverse.
	coldBytes atomic.Int64
	lazyMu    sync.Mutex
	lazyG     lazyGate

	// mmapBacked selects anonymous-mmap backing for large regions (see
	// allocBacking): zero pages on demand instead of a heap memclr.
	// Spaces restored in the background set it — their content arrives
	// through FillCold, so eagerly wiped backing would be paid for
	// nothing — while the rest keep heap backing (a waited restart
	// touches every byte before it returns, and sequential memclr beats
	// page faults).
	// backings pins every mapping the space ever allocated: a Slice
	// view handed to a caller does not keep non-heap memory reachable
	// on its own, so the mappings live exactly as long as the Space —
	// unmapping a region (or freeing the allocation over it) can never
	// invalidate an outstanding view while the space is alive, matching
	// the memory-safety of heap backing. The finalizer reclaims them
	// only when the whole Space is collected.
	mmapBacked bool
	backings   []*backing

	// retired (Retire) keeps the backing of every region unmapped whole
	// in kept, for a successor space to take over (Reuse); reuse holds,
	// by length, what a predecessor left to this space.
	retired bool
	kept    []keptBacking
	reuse   map[int][][]byte

	mmapCount   uint64 // statistics: total MMap calls
	munmapCount uint64
}

// Option configures a Space.
type Option func(*Space)

// WithWindows overrides the default lower/upper windows.
func WithWindows(lower, upper Window) Option {
	return func(s *Space) { s.lower, s.upper = lower, upper }
}

// WithASLR enables address randomization with the given seed. CRAC
// disables ASLR (via personality(ADDR_NO_RANDOMIZE)) because replay-based
// address restoration requires deterministic placement (Section 3.2.4).
func WithASLR(seed int64) Option {
	return func(s *Space) {
		s.aslr = true
		s.rng = rand.New(rand.NewSource(seed))
	}
}

// New creates an empty Space with the default windows and ASLR disabled.
func New(opts ...Option) *Space {
	s := &Space{
		lower: Window{DefaultLowerStart, DefaultLowerEnd},
		upper: Window{DefaultUpperStart, DefaultUpperEnd},
		epoch: 1,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// SetASLR toggles address randomization at runtime, simulating the
// personality(ADDR_NO_RANDOMIZE) call CRAC issues.
func (s *Space) SetASLR(on bool, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aslr = on
	if on {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng = nil
	}
}

// ASLR reports whether address randomization is enabled.
func (s *Space) ASLR() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.aslr
}

// LowerWindow returns the lower-half window.
func (s *Space) LowerWindow() Window { return s.lower }

// UpperWindow returns the upper-half window.
func (s *Space) UpperWindow() Window { return s.upper }

func (s *Space) window(h Half) (Window, error) {
	switch h {
	case HalfLower:
		return s.lower, nil
	case HalfUpper:
		return s.upper, nil
	default:
		return Window{}, fmt.Errorf("addrspace: cannot map into half %v", h)
	}
}

// roundUp rounds n up to a multiple of PageSize.
func roundUp(n uint64) uint64 {
	return (n + PageSize - 1) &^ (PageSize - 1)
}

// aligned reports whether a is page-aligned.
func aligned(a uint64) bool { return a%PageSize == 0 }

// MMap creates a new mapping of length bytes (rounded up to a page
// multiple) in the window belonging to half. hint is the placement hint;
// with MapFixed or MapFixedNoReplace it is mandatory. The chosen start
// address is returned.
func (s *Space) MMap(hint, length uint64, prot Prot, flags MapFlags, half Half, label string) (uint64, error) {
	if length == 0 {
		return 0, ErrZeroLength
	}
	length = roundUp(length)
	w, err := s.window(half)
	if err != nil {
		return 0, err
	}

	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mmapCount++

	switch {
	case flags&MapFixed != 0:
		if !aligned(hint) {
			return 0, ErrUnaligned
		}
		if !w.Contains(hint, length) {
			return 0, fmt.Errorf("%w: %#x+%#x not in %v window", ErrOutOfWindow, hint, length, half)
		}
		// MAP_FIXED replaces whatever is there.
		s.unmapLocked(hint, length)
		return s.insertLocked(hint, length, prot, half, label), nil

	case flags&MapFixedNoReplace != 0:
		if !aligned(hint) {
			return 0, ErrUnaligned
		}
		if !w.Contains(hint, length) {
			return 0, fmt.Errorf("%w: %#x+%#x not in %v window", ErrOutOfWindow, hint, length, half)
		}
		if s.overlapsLocked(hint, length) {
			return 0, ErrOverlap
		}
		return s.insertLocked(hint, length, prot, half, label), nil

	default:
		start, ok := s.findFreeLocked(w, length)
		if !ok {
			return 0, ErrNoSpace
		}
		return s.insertLocked(start, length, prot, half, label), nil
	}
}

// findFreeLocked locates a free range of the given length inside w. With
// ASLR off it returns the lowest fit, which is what makes replay-based
// address restoration deterministic. With ASLR on it perturbs the base.
func (s *Space) findFreeLocked(w Window, length uint64) (uint64, bool) {
	if s.aslr {
		// Try a handful of random page-aligned bases, then fall back to
		// the deterministic lowest fit.
		for try := 0; try < 16; try++ {
			span := w.Size() - length
			if span > w.Size() { // underflow: window too small
				return 0, false
			}
			base := w.Start + uint64(s.rng.Int63n(int64(span/PageSize+1)))*PageSize
			if !s.overlapsLocked(base, length) {
				return base, true
			}
		}
	}
	// Deterministic lowest-fit scan across gaps.
	prev := w.Start
	for _, r := range s.regions {
		if r.end() <= w.Start || r.start >= w.End {
			if r.start >= w.End {
				break
			}
			continue
		}
		if r.start > prev && r.start-prev >= length {
			return prev, true
		}
		if r.end() > prev {
			prev = r.end()
		}
	}
	if w.End > prev && w.End-prev >= length {
		return prev, true
	}
	return 0, false
}

func (s *Space) overlapsLocked(start, length uint64) bool {
	end := start + length
	for _, r := range s.regions {
		if r.start < end && start < r.end() {
			return true
		}
	}
	return false
}

func (s *Space) insertLocked(start, length uint64, prot Prot, half Half, label string) uint64 {
	var data []byte
	if l := s.reuse[int(length)]; len(l) > 0 {
		data = l[len(l)-1]
		s.reuse[int(length)] = l[:len(l)-1]
	} else if s.mmapBacked {
		var back *backing
		data, back = allocBacking(length)
		if back != nil {
			s.backings = append(s.backings, back)
		}
	} else {
		data = make([]byte, length)
	}
	r := &region{start: start, prot: prot, half: half, label: label, data: data,
		gens: make([]uint64, length/PageSize)}
	for i := range r.gens {
		r.gens[i] = s.epoch
	}
	idx := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].start >= start })
	s.regions = append(s.regions, nil)
	copy(s.regions[idx+1:], s.regions[idx:])
	s.regions[idx] = r
	return start
}

// MUnmap removes any mappings in [addr, addr+length), splitting regions
// that straddle the range, like munmap(2).
func (s *Space) MUnmap(addr, length uint64) error {
	if !aligned(addr) {
		return ErrUnaligned
	}
	if length == 0 {
		return ErrZeroLength
	}
	length = roundUp(length)
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.munmapCount++
	s.unmapLocked(addr, length)
	return nil
}

// unmapLocked punches a hole [addr, addr+length) through the region list.
func (s *Space) unmapLocked(addr, length uint64) {
	// An active snapshot must keep the bytes the hole destroys (and
	// survive a MAP_FIXED replacement, which routes through here).
	s.preserveRangeLocked(addr, length)
	// Cold pages in the hole lose their logical content with the
	// mapping: a later mapping at the same address starts warm (zeros),
	// and the materializer must not fill stale image bytes into it.
	s.clearColdLocked(addr, length)
	end := addr + length
	var out []*region
	for _, r := range s.regions {
		switch {
		case r.end() <= addr || r.start >= end:
			out = append(out, r) // untouched
		case r.start >= addr && r.end() <= end:
			// fully covered: drop (a retired space keeps the backing,
			// unless a snapshot might still read it)
			if s.retired && len(s.snaps) == 0 {
				s.kept = append(s.kept, keptBacking{r.data, min(r.hw.Load(), uint64(len(r.data)))})
			}
		case r.start < addr && r.end() > end:
			// hole in the middle: split into two
			left := &region{start: r.start, prot: r.prot, half: r.half, label: r.label,
				data: r.data[:addr-r.start], gens: r.gens[:(addr-r.start)/PageSize]}
			left.hw.Store(r.hw.Load())
			out = append(out, left, r.cut(end, end-r.start))
		case r.start < addr:
			// trim tail
			r.data = r.data[:addr-r.start]
			r.gens = r.gens[:(addr-r.start)/PageSize]
			out = append(out, r)
		default:
			// trim head
			off := end - r.start
			r.data = r.data[off:]
			r.gens = r.gens[off/PageSize:]
			r.start = end
			r.hw.Store(uint64(len(r.data))) // see hw
			out = append(out, r)
		}
	}
	s.regions = out
}

// MProtect changes the protection of every whole region inside
// [addr, addr+length). Regions straddling the boundary are split first.
func (s *Space) MProtect(addr, length uint64, prot Prot) error {
	if !aligned(addr) {
		return ErrUnaligned
	}
	if length == 0 {
		return ErrZeroLength
	}
	length = roundUp(length)
	end := addr + length
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Verify full coverage first.
	if !s.coveredLocked(addr, length) {
		return ErrNotMapped
	}
	s.splitAtLocked(addr)
	s.splitAtLocked(end)
	for _, r := range s.regions {
		if r.start >= addr && r.end() <= end {
			r.prot = prot
		}
	}
	return nil
}

// splitAtLocked splits any region containing addr so that addr becomes a
// region boundary.
func (s *Space) splitAtLocked(addr uint64) {
	for i, r := range s.regions {
		if r.start < addr && addr < r.end() {
			right := r.cut(addr, addr-r.start)
			r.data = r.data[:addr-r.start]
			r.gens = r.gens[:(addr-r.start)/PageSize]
			rest := make([]*region, 0, len(s.regions)+1)
			rest = append(rest, s.regions[:i+1]...)
			rest = append(rest, right)
			rest = append(rest, s.regions[i+1:]...)
			s.regions = rest
			return
		}
	}
}

func (s *Space) coveredLocked(addr, length uint64) bool {
	end := addr + length
	at := addr
	for _, r := range s.regions {
		if r.end() <= at {
			continue
		}
		if r.start > at {
			return false
		}
		at = r.end()
		if at >= end {
			return true
		}
	}
	return at >= end
}

// findLocked returns the region containing addr, or nil.
func (s *Space) findLocked(addr uint64) *region {
	idx := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].end() > addr })
	if idx < len(s.regions) && s.regions[idx].start <= addr {
		return s.regions[idx]
	}
	return nil
}

// ReadAt copies len(p) bytes starting at addr into p. The range may span
// multiple contiguous regions; unmapped gaps are an error. Protection is
// checked (ProtRead required). ReadAt holds only the read lock: see the
// Space concurrency contract.
func (s *Space) ReadAt(addr uint64, p []byte) error {
	if s.coldBytes.Load() != 0 {
		if err := s.faultRange(addr, uint64(len(p))); err != nil {
			return err
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.accessLocked(addr, ProtRead, p, true)
}

// WriteAt copies p into the space starting at addr (ProtWrite required).
// WriteAt holds only the read lock: concurrent writes to non-overlapping
// ranges are race-free (see the Space concurrency contract).
func (s *Space) WriteAt(addr uint64, p []byte) error {
	// A write to a cold page needs the underlying content first: the
	// write may cover only part of the page, and the rest must read
	// back as image bytes, not zeros.
	if s.coldBytes.Load() != 0 {
		if err := s.faultRange(addr, uint64(len(p))); err != nil {
			return err
		}
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.accessLocked(addr, ProtWrite, p, false)
}

// accessLocked walks regions covering [addr, addr+len(buf)) and copies
// between the region data and buf. read selects direction (true:
// region→buf). Writes run preserve → stamp → copy: active snapshots
// keep the pristine bytes, and a page's stamp is already above the cut
// by the time its content changes.
func (s *Space) accessLocked(addr uint64, need Prot, buf []byte, read bool) error {
	if len(buf) == 0 {
		return nil
	}
	at := addr
	remaining := buf
	for len(remaining) > 0 {
		r := s.findLocked(at)
		if r == nil {
			return fmt.Errorf("%w: %#x", ErrNotMapped, at)
		}
		if r.prot&need == 0 {
			return fmt.Errorf("%w: %#x needs %v has %v", ErrPerm, at, need, r.prot)
		}
		off := at - r.start
		chunk := uint64(len(r.data)) - off
		if chunk > uint64(len(remaining)) {
			chunk = uint64(len(remaining))
		}
		if read {
			copy(remaining[:chunk], r.data[off:off+chunk])
		} else {
			s.preserveForSnapshots(r, off, chunk)
			r.stamp(off, chunk, s.epoch)
			copy(r.data[off:off+chunk], remaining[:chunk])
		}
		remaining = remaining[chunk:]
		at += chunk
	}
	return nil
}

// stamp marks the pages covering [off, off+length) as written at epoch.
// Called with at least the read lock held; stores are atomic because
// concurrent writers to disjoint byte ranges may share a page.
func (r *region) stamp(off, length, epoch uint64) {
	if length == 0 {
		return
	}
	first := off / PageSize
	last := (off + length - 1) / PageSize
	for pi := first; pi <= last; pi++ {
		atomic.StoreUint64(&r.gens[pi], epoch)
	}
	r.touch(off + length)
}

// Slice returns a direct, mutable view of [addr, addr+length). The range
// must lie within a single region; this is the fast path used by kernel
// execution (a real GPU would access this memory through UVA directly).
//
// Because the caller may write through the returned view, Slice
// conservatively stamps the whole range dirty when the region is
// writable. Callers that only read should use ReadSlice, which keeps
// the dirty tracking precise.
func (s *Space) Slice(addr, length uint64) ([]byte, error) {
	return s.slice(addr, length, true)
}

// ReadSlice is Slice for read-only use: it returns the same view but
// never marks the range dirty. The caller must not write through it.
func (s *Space) ReadSlice(addr, length uint64) ([]byte, error) {
	return s.slice(addr, length, false)
}

func (s *Space) slice(addr, length uint64, write bool) ([]byte, error) {
	// The caller gets a direct view and may access it at any later
	// point, bypassing the fault gate — so the whole range materializes
	// before the view is handed out.
	if s.coldBytes.Load() != 0 {
		if err := s.faultRange(addr, length); err != nil {
			return nil, err
		}
	}
	if write {
		// Held only for the stamp/preserve window, not for later writes
		// through the returned view: Quiesce additionally gates kernel
		// launches, which is what bounds writers that keep slices.
		s.gate.RLock()
		defer s.gate.RUnlock()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.findLocked(addr)
	if r == nil {
		return nil, fmt.Errorf("%w: %#x", ErrNotMapped, addr)
	}
	off := addr - r.start
	if off+length > uint64(len(r.data)) {
		// The logical range continues into a neighbouring region: callers
		// must fall back to ReadAt/WriteAt.
		if s.coveredLocked(addr, length) {
			return nil, ErrSplitRange
		}
		return nil, fmt.Errorf("%w: %#x+%#x", ErrNotMapped, addr, length)
	}
	if write && r.prot&ProtWrite != 0 {
		// The caller may mutate through the view after we return, so an
		// active snapshot must take its copy now — same conservative
		// granularity as the dirty stamp. A view must not be held across
		// a later snapshot arming (the same contract dirty tracking
		// already imposes across CutEpoch).
		s.preserveForSnapshots(r, off, length)
		r.stamp(off, length, s.epoch)
	}
	return r.data[off : off+length : off+length], nil
}

// Regions returns a snapshot of all raw (unmerged) mappings in address
// order. This is CRAC's own bookkeeping view, which preserves the
// upper/lower attribution that the maps view loses.
func (s *Space) Regions() []RegionInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RegionInfo, 0, len(s.regions))
	for _, r := range s.regions {
		out = append(out, RegionInfo{Start: r.start, Len: uint64(len(r.data)), Prot: r.prot, Half: r.half, Label: r.label})
	}
	return out
}

// RegionsIn returns the raw mappings attributed to the given half.
func (s *Space) RegionsIn(h Half) []RegionInfo {
	var out []RegionInfo
	for _, ri := range s.Regions() {
		if ri.Half == h {
			out = append(out, ri)
		}
	}
	return out
}

// MapsView returns the /proc/PID/maps presentation: adjacent regions with
// identical protection are merged into one entry. When a merge combines
// regions from different halves the result is attributed HalfMixed —
// reproducing the hazard of Section 3.2.2 that forces CRAC to track its
// own allocations.
func (s *Space) MapsView() []RegionInfo {
	raw := s.Regions()
	var out []RegionInfo
	for _, ri := range raw {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.End() == ri.Start && last.Prot == ri.Prot {
				last.Len += ri.Len
				if last.Half != ri.Half {
					last.Half = HalfMixed
				}
				if last.Label != ri.Label {
					last.Label = last.Label + "+" + ri.Label
				}
				continue
			}
		}
		out = append(out, ri)
	}
	return out
}

// MappedBytes returns the total bytes mapped in the given half.
func (s *Space) MappedBytes(h Half) uint64 {
	var n uint64
	for _, ri := range s.Regions() {
		if ri.Half == h {
			n += ri.Len
		}
	}
	return n
}

// Stats reports cumulative mmap/munmap call counts.
func (s *Space) Stats() (mmaps, munmaps uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mmapCount, s.munmapCount
}

// Span is a byte range [Off, Off+Len) relative to a region's start.
type Span struct {
	Off, Len uint64
}

// RegionDirty lists the page-granular dirty spans of one region.
type RegionDirty struct {
	Start uint64 // region start address
	Spans []Span // merged, ascending, page-granular
	Bytes uint64 // total dirty bytes (Σ Spans[i].Len)
}

// WriteEpoch returns the current write epoch. Pages written from now on
// (until the next CutEpoch) are stamped with this value.
func (s *Space) WriteEpoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// CutEpoch takes a dirty-tracking cut: it returns the current epoch and
// advances to the next one. Every write that happened before the call
// is stamped ≤ the returned cut; every write after it is stamped > the
// cut. An incremental checkpointer records the cut at each checkpoint
// and asks DirtySince(prevCut) at the next one.
func (s *Space) CutEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	cut := s.epoch
	s.epoch++
	return cut
}

// DirtySince returns, for every region of the half with at least one
// page written after the since cut, the merged dirty spans. since == 0
// reports everything as dirty (pages carry the stamp of the epoch that
// created them, and epochs start at 1).
func (s *Space) DirtySince(h Half, since uint64) []RegionDirty {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []RegionDirty
	for _, r := range s.regions {
		if r.half != h {
			continue
		}
		rd := RegionDirty{Start: r.start}
		rd.Spans = genSpans(func(pi int) uint64 { return atomic.LoadUint64(&r.gens[pi]) },
			len(r.gens), uint64(len(r.data)), since)
		for _, sp := range rd.Spans {
			rd.Bytes += sp.Len
		}
		if len(rd.Spans) > 0 {
			out = append(out, rd)
		}
	}
	return out
}

// RangeDirtySince reports whether any page overlapping
// [addr, addr+length) was written after the since cut. Unmapped bytes
// in the range count as dirty — the caller cannot prove them unchanged.
func (s *Space) RangeDirtySince(addr, length, since uint64) bool {
	if length == 0 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	end := addr + length
	at := addr
	for at < end {
		r := s.findLocked(at)
		if r == nil {
			return true
		}
		first := (at - r.start) / PageSize
		stop := end
		if re := r.end(); re < stop {
			stop = re
		}
		last := (stop - 1 - r.start) / PageSize
		for pi := first; pi <= last; pi++ {
			if atomic.LoadUint64(&r.gens[pi]) > since {
				return true
			}
		}
		at = r.end()
	}
	return false
}

// keptBacking is the backing of a region a retired space unmapped:
// data[:written] may hold its bytes, the rest is still zero.
type keptBacking struct {
	data    []byte
	written uint64
}

// Retire marks a space that is being discarded: from now on, every
// region unmapped whole keeps its backing for a successor to take over
// with Reuse, instead of leaving it to the collector. The caller
// guarantees that nothing still holds a view of what it unmaps. A space
// that ever used mmap backing does not retire: those mappings live and
// die with the space itself (see backing).
func (s *Space) Retire() {
	s.mu.Lock()
	s.retired = len(s.backings) == 0
	s.mu.Unlock()
}

// Reuse takes over the backings a retired space kept: a later mapping
// of the same length gets one of them instead of fresh memory, wiped up
// to what was written. A restart maps the same arena chunks its
// predecessor unmapped, and the application writes a prefix of each, so
// the rebuild neither allocates an arena footprint nor wipes one. The
// old space keeps nothing from then on. Reuse(nil) drops whatever is
// left.
func (s *Space) Reuse(old *Space) {
	var kept []keptBacking
	if old != nil {
		old.mu.Lock()
		kept, old.kept, old.retired = old.kept, nil, false
		old.mu.Unlock()
	}
	for _, k := range kept {
		clear(k.data[:k.written])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reuse = nil
	for _, k := range kept {
		if s.reuse == nil {
			s.reuse = make(map[int][][]byte)
		}
		n := len(k.data)
		s.reuse[n] = append(s.reuse[n], k.data[:n:n])
	}
}

// SetMmapBacked toggles anonymous-mmap backing for regions created
// from now on (see WithMmapBacking). Call before the space is
// populated.
func (s *Space) SetMmapBacked(on bool) {
	s.mu.Lock()
	s.mmapBacked = on
	s.mu.Unlock()
}
