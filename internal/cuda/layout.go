package cuda

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/addrspace"
)

// Arena names one of the library's allocation arenas.
type Arena uint8

// The arenas, in the order LiveSet indexes them.
const (
	ArenaDevice  Arena = iota // cudaMalloc
	ArenaPinned               // cudaMallocHost
	ArenaManaged              // cudaMallocManaged
	NumArenas
)

// arenaLabels are the region labels the arenas map their chunks under.
var arenaLabels = [NumArenas]string{"cuda/dev-arena", "cuda/pinned-arena", "cuda/managed-arena"}

// Chunk is one mapping an arena grew by. Blocks never span chunks, so
// the chunk map is what fixes every free block's bounds.
type Chunk struct {
	Start, Size uint64
	Arena       Arena
}

// Layout is the lower-half arena layout: every arena chunk, in address
// order. It is metadata only — no byte of arena memory.
type Layout []Chunk

// LiveSet holds each arena's live allocations in allocation order,
// indexed by Arena, with the sizes the application requested.
type LiveSet [NumArenas][]Allocation

// Errors of the layout rebuild.
var (
	// ErrBadLayout reports a layout that no library could have had: out
	// of the lower window, overlapping, unaligned, or not covering the
	// live allocations it is rebuilt with.
	ErrBadLayout = errors.New("cuda: malformed arena layout")
	// ErrPlacement reports a chunk that the fresh address space placed
	// somewhere other than its recorded address (ASLR, a different
	// platform): the rebuilt allocator would not be the original one.
	ErrPlacement = errors.New("cuda: arena chunk placed off its recorded address")
)

// LayoutOf reads the arena layout from a view's raw lower-half regions
// — for a checkpoint, the region table its snapshot froze at the cut.
// It takes no arena lock: at a cut, a growing allocation can hold its
// arena lock while it waits on the frozen space. The raw regions, unlike
// the merged maps view, keep adjacent chunks apart.
func LayoutOf(view addrspace.View) Layout {
	var lay Layout
	for _, ri := range view.RegionsIn(addrspace.HalfLower) {
		for k, label := range arenaLabels {
			if ri.Label == label {
				lay = append(lay, Chunk{Start: ri.Start, Size: ri.Len, Arena: Arena(k)})
				break
			}
		}
	}
	return lay
}

// Check validates lay against the lower window and the live allocations
// it is to be rebuilt with: chunks page-aligned, in address order,
// disjoint and inside the window; every live allocation inside one
// chunk of its own arena, 256-byte aligned, and disjoint from the
// others. A layout that passes can be rebuilt without any guess.
func (lay Layout) Check(lower addrspace.Window, live LiveSet) error {
	var prevEnd uint64
	for i, c := range lay {
		switch {
		case c.Arena >= NumArenas:
			return fmt.Errorf("%w: chunk %d names arena %d", ErrBadLayout, i, c.Arena)
		case c.Size == 0 || c.Start%addrspace.PageSize != 0 || c.Size%addrspace.PageSize != 0:
			return fmt.Errorf("%w: chunk %d %#x+%#x not page-aligned", ErrBadLayout, i, c.Start, c.Size)
		case !lower.Contains(c.Start, c.Size):
			return fmt.Errorf("%w: chunk %d %#x+%#x outside the lower window", ErrBadLayout, i, c.Start, c.Size)
		case i > 0 && c.Start < prevEnd:
			return fmt.Errorf("%w: chunk %d %#x overlaps or precedes its predecessor", ErrBadLayout, i, c.Start)
		}
		prevEnd = c.Start + c.Size
	}
	for k, allocs := range live {
		sorted := sortedByAddr(allocs)
		var end uint64
		for i, a := range sorted {
			size := alignUp(a.Size, allocAlign)
			if a.Size == 0 || size < a.Size || a.Addr%allocAlign != 0 {
				return fmt.Errorf("%w: %s allocation %#x+%d malformed", ErrBadLayout, arenaLabels[k], a.Addr, a.Size)
			}
			if i > 0 && a.Addr < end {
				return fmt.Errorf("%w: %s allocations overlap at %#x", ErrBadLayout, arenaLabels[k], a.Addr)
			}
			end = a.Addr + size
			if c, ok := lay.chunkAt(a.Addr); !ok || c.Arena != Arena(k) || end < a.Addr || end > c.Start+c.Size {
				return fmt.Errorf("%w: %s allocation %#x+%d outside every chunk of its arena", ErrBadLayout, arenaLabels[k], a.Addr, a.Size)
			}
		}
	}
	return nil
}

// chunkAt returns the chunk containing addr (lay is address-ordered).
func (lay Layout) chunkAt(addr uint64) (Chunk, bool) {
	i := sort.Search(len(lay), func(i int) bool { return lay[i].Start+lay[i].Size > addr })
	if i < len(lay) && lay[i].Start <= addr {
		return lay[i], true
	}
	return Chunk{}, false
}

func sortedByAddr(allocs []Allocation) []Allocation {
	out := append([]Allocation(nil), allocs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// RebuildArenas rebuilds the arenas of a fresh library from a recorded
// layout and the live allocations, instead of replaying the whole
// malloc/free history that produced them. The result is the allocator
// full replay would have built:
//
//   - the chunks are mapped in address order through the ordinary
//     hintless mmap — exactly how the original arenas grew, since the
//     lower half is never unmapped — and each must land at its recorded
//     address, or the call fails with ErrPlacement;
//   - each live allocation is placed at its recorded address, in
//     allocation order, and charged as one allocation call;
//   - the free list is each chunk's complement of the live set, the
//     fully coalesced list insertFree always maintains.
//
// Managed allocations are re-registered with UVM. The arena counters
// (allocation, free and mmap counts, the live-byte peak) restart with
// the incarnation: they count what this rebuild issued.
func (l *Library) RebuildArenas(lay Layout, live LiveSet) error {
	if err := lay.Check(l.space.LowerWindow(), live); err != nil {
		return err
	}
	arenas := l.arenas()
	for _, a := range arenas {
		if a.stats().Chunks > 0 {
			return errf(ErrorInvalidValue, "rebuildArenas", "%s already has chunks", a.name)
		}
	}
	for _, c := range lay {
		a := arenas[c.Arena]
		start, err := l.space.MMap(0, c.Size, addrspace.ProtRW, 0, a.half, a.label)
		if err != nil {
			return errf(ErrorMemoryAllocation, a.name, "mmap: %v", err)
		}
		a.mu.Lock()
		a.mmaps++
		a.mapped += c.Size
		a.chunks = append(a.chunks, chunkInfo{start: start, size: c.Size})
		a.mu.Unlock()
		if start != c.Start {
			return fmt.Errorf("%w: %s chunk recorded at %#x, mapped at %#x", ErrPlacement, a.name, c.Start, start)
		}
	}
	for k, allocs := range live {
		for _, al := range allocs {
			if err := l.touch(arenas[k].name); err != nil {
				return err
			}
			driverAlloc()
			arenas[k].place(al.Addr, alignUp(al.Size, allocAlign))
			if Arena(k) == ArenaManaged {
				l.uvm.Register(al.Addr, al.Size)
			}
		}
		arenas[k].freeComplement()
	}
	if len(arenas[ArenaManaged].chunks) > 0 {
		l.uvmTouched.Store(true)
	}
	return nil
}

func (l *Library) arenas() [NumArenas]*arena {
	return [NumArenas]*arena{l.devArena, l.pinArena, l.mgdArena}
}

// ArenaState is an arena's whole allocator state: what two libraries
// must agree on to hand out the same addresses from here on.
type ArenaState struct {
	Chunks []Chunk      // in mapping order
	Free   []Allocation // free blocks, address-ordered
	Live   []Allocation // live allocations in allocation order, arena-aligned sizes
	Mapped uint64
}

// ArenaStates returns the allocator state of every arena, indexed by
// Arena.
func (l *Library) ArenaStates() [NumArenas]ArenaState {
	var out [NumArenas]ArenaState
	for k, a := range l.arenas() {
		a.mu.Lock()
		st := ArenaState{Mapped: a.mapped}
		for _, c := range a.chunks {
			st.Chunks = append(st.Chunks, Chunk{Start: c.start, Size: c.size, Arena: Arena(k)})
		}
		for _, b := range a.free {
			st.Free = append(st.Free, Allocation{Addr: b.addr, Size: b.size})
		}
		for _, addr := range a.order {
			st.Live = append(st.Live, Allocation{Addr: addr, Size: a.live[addr]})
		}
		a.mu.Unlock()
		out[k] = st
	}
	return out
}
