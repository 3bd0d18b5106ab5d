//go:build linux || darwin

package addrspace

import (
	"runtime"
	"sync"
	"syscall"
)

// backingThreshold is the region size from which backing memory comes
// from an anonymous mmap instead of the Go heap. Large regions (arena
// chunks, big host buffers) dominate restart latency when allocated
// with make: the runtime memclrs reused spans, so every restart pays a
// sequential wipe of the whole arena footprint before a single byte is
// restored. Anonymous mappings are zero on demand — the kernel hands
// out zero pages faulted in on first touch — which is exactly the
// behaviour the real mmap(2)-backed arenas have, and it shrinks a lazy
// restart's visible phase to O(metadata).
const backingThreshold = 1 << 20

// backing owns one anonymous mapping. Regions (and frozen snapshot
// regions) that slice into it keep a pointer, so the finalizer cannot
// reclaim memory that any live view can still reach.
type backing struct{ b []byte }

// spare holds the mappings of collected spaces, wiped, for the next
// space to take instead of mapping fresh memory. A process that restarts
// lazily again and again otherwise has the kernel unmap one arena
// footprint and zero-fault in another per restart: a third of a
// restart's CPU on a quiet machine, and on a virtual machine whose host
// backs guest pages on first touch anything from that to five times the
// whole restart, at random. A recycled mapping is resident and costs a
// user-space wipe off the restart path (in the finalizer) instead.
//
// The spare bytes never exceed the bytes live spaces have mapped: one
// extra footprint at most — what an unmapped-on-finalize scheme holds
// anyway between a restart and the next collection — and nothing once
// the last mmap-backed space is gone.
var spare struct {
	sync.Mutex
	bySize map[int][][]byte
	bytes  int // held in bySize
	live   int // handed out by allocBacking and not yet finalized
}

// allocBacking returns a zeroed byte slice of length n and its owner
// (nil when the slice came from the Go heap). n is page-aligned.
func allocBacking(n uint64) ([]byte, *backing) {
	if n < backingThreshold {
		return make([]byte, n), nil
	}
	b := takeSpare(int(n))
	if b == nil {
		var err error
		b, err = syscall.Mmap(-1, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return make([]byte, n), nil
		}
	}
	spare.Lock()
	spare.live += len(b)
	spare.Unlock()
	bk := &backing{b: b}
	runtime.SetFinalizer(bk, func(bk *backing) { releaseBacking(bk.b) })
	return b, bk
}

// takeSpare pops a wiped mapping of exactly n bytes, or returns nil.
func takeSpare(n int) []byte {
	spare.Lock()
	defer spare.Unlock()
	l := spare.bySize[n]
	if len(l) == 0 {
		return nil
	}
	b := l[len(l)-1]
	spare.bySize[n] = l[:len(l)-1]
	spare.bytes -= n
	return b
}

// releaseBacking retires the mapping of a collected space: kept as a
// spare while the spares stay within what is still live, unmapped
// otherwise — along with any older spares the shrunken live set no
// longer covers. Finalizers run one at a time, so releases never race
// each other, only allocBacking.
func releaseBacking(b []byte) {
	spare.Lock()
	spare.live -= len(b)
	keep := spare.bytes+len(b) <= spare.live
	spare.Unlock()
	if keep {
		clear(b) // outside the lock: milliseconds for a large region
	}
	drop := [][]byte{b}
	spare.Lock()
	if keep {
		if spare.bySize == nil {
			spare.bySize = make(map[int][][]byte)
		}
		spare.bySize[len(b)] = append(spare.bySize[len(b)], b)
		spare.bytes += len(b)
		drop = nil
	}
	for n, l := range spare.bySize {
		for len(l) > 0 && spare.bytes > spare.live {
			drop = append(drop, l[len(l)-1])
			l = l[:len(l)-1]
			spare.bytes -= n
		}
		spare.bySize[n] = l
	}
	spare.Unlock()
	for _, d := range drop {
		_ = syscall.Munmap(d)
	}
}
