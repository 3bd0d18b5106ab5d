//go:build linux || darwin

package addrspace

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// collect runs the garbage collector until done reports true: a
// finalizer runs some time after the cycle that found its object dead.
func collect(t *testing.T, done func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !done(); {
		if time.Now().After(deadline) {
			t.Fatal("finalizers did not run")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

func spareState() (bytes, live int) {
	spare.Lock()
	defer spare.Unlock()
	return spare.bytes, spare.live
}

// A collected space's mapping comes back wiped to the next space that
// asks for the same size, spares never exceed what is live, and the last
// mapping out leaves nothing behind.
func TestBackingRecycled(t *testing.T) {
	const n = 2 * backingThreshold
	collect(t, func() bool { _, live := spareState(); return live == 0 })

	_, pinOwner := allocBacking(n) // the "current" space: keeps one footprint live
	old, oldOwner := allocBacking(n)
	if pinOwner == nil || oldOwner == nil {
		t.Skip("no anonymous mmap here")
	}
	for i := range old {
		old[i] = 0xa5
	}
	oldAddr := unsafe.Pointer(&old[0])
	old, oldOwner = nil, nil
	collect(t, func() bool { bytes, _ := spareState(); return bytes == n })

	again, againOwner := allocBacking(n)
	if unsafe.Pointer(&again[0]) != oldAddr {
		t.Errorf("second mapping at %p, want the recycled one at %p", &again[0], oldAddr)
	}
	for i, b := range again {
		if b != 0 {
			t.Fatalf("recycled mapping not wiped: byte %d = %#x", i, b)
		}
	}
	if bytes, live := spareState(); bytes != 0 || live != 2*n {
		t.Errorf("after reuse: %d spare, %d live; want 0, %d", bytes, live, 2*n)
	}

	// Another size is never handed a spare of this one.
	other, otherOwner := allocBacking(n + PageSize)
	if len(other) != n+PageSize {
		t.Fatalf("len %d", len(other))
	}

	runtime.KeepAlive(pinOwner)
	runtime.KeepAlive(againOwner)
	runtime.KeepAlive(otherOwner)
	again, other = nil, nil
	pinOwner, againOwner, otherOwner = nil, nil, nil
	collect(t, func() bool { bytes, live := spareState(); return live == 0 && bytes == 0 })
}
