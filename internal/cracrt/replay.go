package cracrt

import (
	"fmt"

	"repro/internal/crt"
	"repro/internal/cuda"
	"repro/internal/gpusim"
	"repro/internal/replaylog"
)

// Replay re-executes a recorded call history against lib, a fresh
// lower half, the way the paper's CRAC restarts (Section 3.2.4): the
// *entire* malloc/free history of the device, pinned and managed arenas,
// so the deterministic allocator reproduces every active address, while
// cudaHostAlloc buffers (whose bytes were restored with the upper half)
// are re-registered and streams, events and fat binaries recreated for
// the active set only.
//
// No restart takes this route — Rebind issues the active set onto a
// recorded arena layout — and neither the runtime's log nor an image
// keeps the history: it comes from an observer attached to the runtime
// (Runtime.Observe). Replay is the oracle Rebind is tested against
// (DESIGN.md invariant 1) and the full-replay column of the fig3 and
// fig5c experiments. It binds no kernel bodies: the functions it
// registers panic if launched.
func Replay(lib *cuda.Library, history []replaylog.Entry) (Bindings, error) {
	b := Bindings{
		Streams: make(map[crt.StreamHandle]cuda.Stream),
		Events:  make(map[crt.EventHandle]cuda.Event),
		FatBins: make(map[crt.FatBinHandle]cuda.FatBinaryHandle),
	}
	active := replaylog.ActiveOf(history)
	// A cudaHostAlloc buffer is active by address and size: an address
	// the upper half reused after a free also names the freed buffer,
	// whose (possibly longer) range the restored upper half lacks.
	activeHost := make(map[uint64]uint64, len(active.Host))
	for _, a := range active.Host {
		activeHost[a.Addr] = a.Size
	}
	activeStreams := make(map[uint64]bool, len(active.Streams))
	for _, h := range active.Streams {
		activeStreams[h] = true
	}
	activeEvents := make(map[uint64]bool, len(active.Events))
	for _, h := range active.Events {
		activeEvents[h] = true
	}
	activeFats := make(map[uint64]bool, len(active.FatBins))
	for _, fb := range active.FatBins {
		activeFats[fb.Handle] = true
	}

	for _, e := range history {
		switch e.Kind {
		case replaylog.KindMalloc:
			addr, err := lib.Malloc(e.Size)
			if err != nil {
				return b, fmt.Errorf("cracrt: replay %v: %w", e, err)
			}
			if addr != e.Addr {
				return b, fmt.Errorf("%w: %v got %#x", ErrReplayMismatch, e, addr)
			}
		case replaylog.KindFree, replaylog.KindFreeManaged:
			if err := lib.Free(e.Addr); err != nil {
				return b, fmt.Errorf("cracrt: replay %v: %w", e, err)
			}
		case replaylog.KindMallocHost:
			addr, err := lib.MallocHost(e.Size)
			if err != nil {
				return b, fmt.Errorf("cracrt: replay %v: %w", e, err)
			}
			if addr != e.Addr {
				return b, fmt.Errorf("%w: %v got %#x", ErrReplayMismatch, e, addr)
			}
		case replaylog.KindFreeHost:
			if err := lib.FreeHost(e.Addr); err != nil {
				return b, fmt.Errorf("cracrt: replay %v: %w", e, err)
			}
		case replaylog.KindMallocManaged:
			addr, err := lib.MallocManaged(e.Size)
			if err != nil {
				return b, fmt.Errorf("cracrt: replay %v: %w", e, err)
			}
			if addr != e.Addr {
				return b, fmt.Errorf("%w: %v got %#x", ErrReplayMismatch, e, addr)
			}
		case replaylog.KindHostAlloc:
			// The buffer bytes are already in the restored upper half;
			// only active registrations are redone (Section 3.2.4).
			if size, ok := activeHost[e.Addr]; ok && size == e.Size {
				if err := lib.HostRegister(e.Addr, e.Size); err != nil {
					return b, fmt.Errorf("cracrt: replay %v: %w", e, err)
				}
			}
		case replaylog.KindStreamCreate:
			if activeStreams[e.Handle] {
				ps, err := lib.StreamCreate()
				if err != nil {
					return b, fmt.Errorf("cracrt: replay %v: %w", e, err)
				}
				b.Streams[crt.StreamHandle(e.Handle)] = ps
			}
		case replaylog.KindEventCreate:
			if activeEvents[e.Handle] {
				pe, err := lib.EventCreate()
				if err != nil {
					return b, fmt.Errorf("cracrt: replay %v: %w", e, err)
				}
				b.Events[crt.EventHandle(e.Handle)] = pe
			}
		case replaylog.KindRegisterFatBinary:
			if activeFats[e.Handle] {
				ph, err := lib.RegisterFatBinary(e.Module)
				if err != nil {
					return b, fmt.Errorf("cracrt: replay %v: %w", e, err)
				}
				b.FatBins[crt.FatBinHandle(e.Handle)] = ph
			}
		case replaylog.KindRegisterFunction:
			ph, ok := b.FatBins[crt.FatBinHandle(e.Handle)]
			if !ok {
				continue // fat binary no longer active
			}
			if err := lib.RegisterFunction(ph, e.Name, unboundKernel); err != nil {
				return b, fmt.Errorf("cracrt: replay %v: %w", e, err)
			}
		}
		// Frees of cudaHostAlloc buffers and destroyed streams, events
		// and fat binaries: nothing was recreated for them.
	}
	return b, nil
}

// unboundKernel stands in for the kernel bodies Replay does not bind.
func unboundKernel(*cuda.DevCtx, gpusim.LaunchConfig, []uint64) {
	panic("cracrt: kernel registered by Replay has no body")
}
