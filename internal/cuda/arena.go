package cuda

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/addrspace"
)

// allocAlign is the allocation granularity: real cudaMalloc returns
// 256-byte-aligned pointers.
const allocAlign = 256

// BlockSize is the arena block an allocation of size bytes carves: size
// rounded up to the allocation granularity. Consecutive carves meet
// block end to block start.
func BlockSize(size uint64) uint64 { return alignUp(size, allocAlign) }

// arena is the deterministic allocation arena behind one family of CUDA
// allocation calls (device, pinned-host, or managed).
//
// It reproduces the behaviours the paper's implementation sections hinge
// on:
//
//   - The first allocation maps a large arena with *several* mmap calls,
//     and later allocations usually perform no mmap at all
//     (Section 3.2.1: "a single cudaMalloc call can make many calls to
//     mmap. ... Subsequent cudaMalloc call might not call mmap at all").
//   - Allocation is deterministic: replaying an identical malloc/free
//     sequence on a fresh arena yields identical addresses
//     (Section 3.2.4: "CRAC relies on determinism of the CUDA library
//     allocation"). This is guaranteed by first-fit over an
//     address-ordered free list and deterministic region placement.
//   - A single global lock serializes allocation, matching the extra
//     lock the paper notes concurrent streams would force on the
//     lower-half cudaMalloc path (Section 3.1, "Log-and-replay").
type arena struct {
	name   string
	space  *addrspace.Space
	half   addrspace.Half
	label  string
	maxMap uint64 // total mapping budget (device memory size etc.)

	growthChunk uint64 // bytes added per growth episode
	growthMmaps int    // number of mmap calls per growth episode

	mu     sync.Mutex
	chunks []chunkInfo
	free   []block           // sorted by addr
	live   map[uint64]uint64 // addr -> size
	order  []uint64          // live allocation addresses in alloc order
	mapped uint64            // bytes currently mapped
	liveSz uint64            // current live bytes

	// Per-incarnation counters: a library rebuilt by RebuildArenas
	// starts them from what the rebuild issued, not from the history.
	peak   uint64 // high-water mark of live bytes
	allocs uint64 // alloc count
	frees  uint64 // free count
	mmaps  uint64 // mmap calls made by this arena
}

type chunkInfo struct {
	start, size uint64
}

// block is a free range inside one chunk. Blocks never span chunks, so an
// allocation is always contiguous in one mapped region.
type block struct {
	addr, size uint64
	chunk      int
}

func newArena(space *addrspace.Space, half addrspace.Half, name, label string, growthChunk uint64, growthMmaps int, maxMap uint64) *arena {
	if growthMmaps < 1 {
		growthMmaps = 1
	}
	return &arena{
		name:        name,
		space:       space,
		half:        half,
		label:       label,
		maxMap:      maxMap,
		growthChunk: growthChunk,
		growthMmaps: growthMmaps,
		live:        make(map[uint64]uint64),
	}
}

func alignUp(n, a uint64) uint64 { return (n + a - 1) &^ (a - 1) }

// grow maps more backing memory as growthMmaps separate mmap calls,
// creating one or more chunks. need is the minimum usable size required.
func (a *arena) grow(need uint64) error {
	total := a.growthChunk
	if need > total {
		total = alignUp(need, addrspace.PageSize)
	}
	if a.maxMap > 0 && a.mapped+total > a.maxMap {
		// Last chance: a dedicated mapping of exactly the needed size.
		total = alignUp(need, addrspace.PageSize)
		if a.mapped+total > a.maxMap {
			return errf(ErrorMemoryAllocation, a.name,
				"arena exhausted: mapped %d + need %d > budget %d", a.mapped, total, a.maxMap)
		}
	}
	per := alignUp(total/uint64(a.growthMmaps), addrspace.PageSize)
	if per == 0 {
		per = addrspace.PageSize
	}
	var mappedNow uint64
	for i := 0; i < a.growthMmaps && mappedNow < total; i++ {
		sz := per
		if i == a.growthMmaps-1 || mappedNow+sz > total {
			sz = total - mappedNow
			sz = alignUp(sz, addrspace.PageSize)
		}
		if sz == 0 {
			break
		}
		start, err := a.space.MMap(0, sz, addrspace.ProtRW, 0, a.half, a.label)
		if err != nil {
			return errf(ErrorMemoryAllocation, a.name, "mmap: %v", err)
		}
		a.mmaps++
		a.mapped += sz
		mappedNow += sz
		ci := len(a.chunks)
		a.chunks = append(a.chunks, chunkInfo{start: start, size: sz})
		a.insertFree(block{addr: start, size: sz, chunk: ci})
	}
	// A fresh chunk may not individually satisfy need even if the total
	// does; ensure at least one free block is large enough.
	for _, b := range a.free {
		if b.size >= need {
			return nil
		}
	}
	// Map one dedicated chunk big enough for the request.
	sz := alignUp(need, addrspace.PageSize)
	if a.maxMap > 0 && a.mapped+sz > a.maxMap {
		return errf(ErrorMemoryAllocation, a.name, "arena exhausted for %d-byte request", need)
	}
	start, err := a.space.MMap(0, sz, addrspace.ProtRW, 0, a.half, a.label)
	if err != nil {
		return errf(ErrorMemoryAllocation, a.name, "mmap: %v", err)
	}
	a.mmaps++
	a.mapped += sz
	ci := len(a.chunks)
	a.chunks = append(a.chunks, chunkInfo{start: start, size: sz})
	a.insertFree(block{addr: start, size: sz, chunk: ci})
	return nil
}

// insertFree inserts b keeping the list address-sorted and coalescing
// with neighbours in the same chunk.
func (a *arena) insertFree(b block) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr >= b.addr })
	a.free = append(a.free, block{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = b
	// Coalesce with successor.
	if i+1 < len(a.free) {
		n := a.free[i+1]
		if n.chunk == b.chunk && a.free[i].addr+a.free[i].size == n.addr {
			a.free[i].size += n.size
			a.free = append(a.free[:i+1], a.free[i+2:]...)
		}
	}
	// Coalesce with predecessor.
	if i > 0 {
		p := a.free[i-1]
		if p.chunk == a.free[i].chunk && p.addr+p.size == a.free[i].addr {
			a.free[i-1].size += a.free[i].size
			a.free = append(a.free[:i], a.free[i+1:]...)
		}
	}
}

// alloc returns the address of a new allocation of the given size.
func (a *arena) alloc(size uint64) (uint64, error) {
	if size == 0 {
		return 0, errf(ErrorInvalidValue, a.name, "zero-size allocation")
	}
	size = alignUp(size, allocAlign)

	a.mu.Lock()
	defer a.mu.Unlock()

	idx := a.firstFit(size)
	if idx < 0 {
		if err := a.grow(size); err != nil {
			return 0, err
		}
		idx = a.firstFit(size)
		if idx < 0 {
			return 0, errf(ErrorMemoryAllocation, a.name, "no fit for %d bytes after growth", size)
		}
	}
	b := a.free[idx]
	addr := b.addr
	if b.size == size {
		a.free = append(a.free[:idx], a.free[idx+1:]...)
	} else {
		a.free[idx].addr += size
		a.free[idx].size -= size
	}
	a.live[addr] = size
	a.order = append(a.order, addr)
	a.liveSz += size
	if a.liveSz > a.peak {
		a.peak = a.liveSz
	}
	a.allocs++
	return addr, nil
}

// place records a live allocation at a known address, as RebuildArenas
// issues it: the free list is rebuilt once afterwards by
// freeComplement.
func (a *arena) place(addr, size uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.live[addr] = size
	a.order = append(a.order, addr)
	a.liveSz += size
	a.peak = a.liveSz
	a.allocs++
}

// freeComplement sets the free list to each chunk's complement of the
// live allocations: maximal runs, which is the list insertFree's
// coalescing maintains through any alloc/free history.
func (a *arena) freeComplement() {
	a.mu.Lock()
	defer a.mu.Unlock()
	live := make([]uint64, 0, len(a.live))
	for addr := range a.live {
		live = append(live, addr)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	a.free = a.free[:0]
	for ci, c := range a.chunks {
		at, end := c.start, c.start+c.size
		for len(live) > 0 && live[0] < end {
			if live[0] > at {
				a.free = append(a.free, block{addr: at, size: live[0] - at, chunk: ci})
			}
			at = live[0] + a.live[live[0]]
			live = live[1:]
		}
		if end > at {
			a.free = append(a.free, block{addr: at, size: end - at, chunk: ci})
		}
	}
}

// firstFit returns the index of the lowest-address free block that fits,
// or -1.
func (a *arena) firstFit(size uint64) int {
	for i, b := range a.free {
		if b.size >= size {
			return i
		}
	}
	return -1
}

// release frees the allocation based at addr.
func (a *arena) release(addr uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	size, ok := a.live[addr]
	if !ok {
		return errf(ErrorInvalidDevicePointer, a.name, "free of unallocated pointer %#x", addr)
	}
	delete(a.live, addr)
	for i, o := range a.order {
		if o == addr {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
	a.liveSz -= size
	a.frees++
	a.insertFree(block{addr: addr, size: size, chunk: a.chunkOf(addr)})
	return nil
}

func (a *arena) chunkOf(addr uint64) int {
	for i, c := range a.chunks {
		if addr >= c.start && addr < c.start+c.size {
			return i
		}
	}
	return -1
}

// contains reports whether addr falls inside any chunk of the arena.
func (a *arena) contains(addr uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.chunkOf(addr) >= 0
}

// sizeOf returns the live allocation size at addr, if live.
func (a *arena) sizeOf(addr uint64) (uint64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.live[addr]
	return s, ok
}

// Allocation is one live allocation (an "active malloc" in the paper's
// terms, Section 3.2.3).
type Allocation struct {
	Addr uint64
	Size uint64
}

// liveAllocations returns the active mallocs in allocation order. This is
// exactly the set whose contents CRAC saves at checkpoint — not the whole
// arena (Section 3.2.3: "we only save the memory associated with active
// mallocs").
func (a *arena) liveAllocations() []Allocation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Allocation, 0, len(a.order))
	for _, addr := range a.order {
		out = append(out, Allocation{Addr: addr, Size: a.live[addr]})
	}
	return out
}

// arenaStats summarizes the arena for experiments and tests.
type arenaStats struct {
	Mapped    uint64
	Live      uint64
	Peak      uint64
	LiveCount int
	Allocs    uint64
	Frees     uint64
	Mmaps     uint64
	Chunks    int
}

func (a *arena) stats() arenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return arenaStats{
		Mapped:    a.mapped,
		Live:      a.liveSz,
		Peak:      a.peak,
		LiveCount: len(a.live),
		Allocs:    a.allocs,
		Frees:     a.frees,
		Mmaps:     a.mmaps,
		Chunks:    len(a.chunks),
	}
}

// unmapAll releases every chunk back to the address space (library
// teardown when the lower half is discarded).
func (a *arena) unmapAll() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range a.chunks {
		_ = a.space.MUnmap(c.start, c.size)
	}
	a.chunks = nil
	a.free = nil
	a.live = map[uint64]uint64{}
	a.order = nil
	a.mapped = 0
	a.liveSz = 0
}

// debugString renders the arena state for diagnostics.
func (a *arena) debugString() string {
	st := a.stats()
	return fmt.Sprintf("%s: mapped=%d live=%d(%d allocs) peak=%d mmaps=%d chunks=%d",
		a.name, st.Mapped, st.Live, st.LiveCount, st.Peak, st.Mmaps, st.Chunks)
}
