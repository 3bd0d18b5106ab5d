package cracrt

import (
	"errors"
	"fmt"
	"maps"

	"repro/internal/crt"
	"repro/internal/cuda"
	"repro/internal/replaylog"
)

// ErrReplayMismatch is returned when a fresh lower half does not
// reproduce the original addresses — an arena chunk lands elsewhere, or
// replay gets a different address — the failure mode that appears if
// ASLR is left enabled or the platform changes, which is why CRAC
// disables address randomization and requires the same CUDA/GPU
// platform on restart (Section 3.2.4).
var ErrReplayMismatch = errors.New("cracrt: replay produced a different address (determinism violated)")

// RegisterKernelTable makes module's kernels resolvable during replay in
// a process that has not executed the original RegisterFunction calls
// (cross-process restore). Workloads export their kernel tables so both
// the original and the restarted process can resolve them — the
// simulation's analogue of the fat-binary device code sitting in the
// restored application text segment.
func (r *Runtime) RegisterKernelTable(module string, funcs map[string]cuda.Kernel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mod, ok := r.kernelsByModule[module]
	if !ok {
		mod = make(map[string]cuda.Kernel)
		r.kernelsByModule[module] = mod
	}
	for name, k := range funcs {
		mod[name] = k
	}
}

// KernelTables returns a deep copy of every kernel table the runtime
// can resolve, both tables installed via RegisterKernelTable and
// kernels registered directly through RegisterFunction. Live migration
// uses it to seed the destination session's runtime, so log replay
// there resolves the same kernels without the application re-executing
// its registrations.
func (r *Runtime) KernelTables() map[string]map[string]cuda.Kernel {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]map[string]cuda.Kernel, len(r.kernelsByModule))
	for module, funcs := range r.kernelsByModule {
		t := make(map[string]cuda.Kernel, len(funcs))
		for name, k := range funcs {
			t[name] = k
		}
		out[module] = t
	}
	return out
}

// Rebind installs a fresh lower half (library plus entry table) and
// rebuilds the runtime's CUDA state in it from an image: log is the
// image's call log (nil keeps the runtime's own), active its active set
// and layout the lower-half arena layout captured at the image's cut.
//
// Rebind issues the active set, not the history. The arenas are rebuilt
// from layout with every live allocation placed at its recorded address
// (cuda.Library.RebuildArenas); a chunk the fresh address space places
// anywhere else — ASLR left on, a different platform — is
// ErrReplayMismatch, exactly as a diverging replay was (Section 3.2.4).
// Active cudaHostAlloc buffers, whose bytes were restored with the upper
// half, are re-registered, and live streams, events and fat binaries are
// recreated in log order, with fat-binary handles re-mapped ("patched",
// Section 3.2.5). The result equals what Replay of the whole log builds
// (DESIGN.md invariant 1). New virtual handles continue above the
// highest ones the log ever issued.
func (r *Runtime) Rebind(lib *cuda.Library, entries EntryTable, log *replaylog.Log, active replaylog.ActiveSet, layout cuda.Layout) error {
	r.mu.Lock()
	if log != nil {
		r.log = log
	}
	r.lib = lib
	r.entries = entries
	r.vs = make(map[crt.StreamHandle]cuda.Stream)
	r.ve = make(map[crt.EventHandle]cuda.Event)
	r.vf = make(map[crt.FatBinHandle]cuda.FatBinaryHandle)
	r.fdefs = make(map[crt.FatBinHandle]*fatDef)
	r.rebound = active
	r.heap.SetSpace(lib.Space())
	r.mu.Unlock()

	if err := lib.RebuildArenas(layout, LiveSet(active)); err != nil {
		if errors.Is(err, cuda.ErrPlacement) {
			return fmt.Errorf("%w: %v", ErrReplayMismatch, err)
		}
		return fmt.Errorf("cracrt: rebuilding arenas: %w", err)
	}
	for _, a := range active.Host {
		if err := lib.HostRegister(a.Addr, a.Size); err != nil {
			return fmt.Errorf("cracrt: re-registering cudaHostAlloc %#x+%d: %w", a.Addr, a.Size, err)
		}
	}
	for _, h := range active.Streams {
		ps, err := lib.StreamCreate()
		if err != nil {
			return fmt.Errorf("cracrt: recreating stream vh%d: %w", h, err)
		}
		r.mu.Lock()
		r.vs[crt.StreamHandle(h)] = ps
		r.mu.Unlock()
	}
	for _, h := range active.Events {
		pe, err := lib.EventCreate()
		if err != nil {
			return fmt.Errorf("cracrt: recreating event vh%d: %w", h, err)
		}
		r.mu.Lock()
		r.ve[crt.EventHandle(h)] = pe
		r.mu.Unlock()
	}
	for _, fb := range active.FatBins {
		ph, err := lib.RegisterFatBinary(fb.Module)
		if err != nil {
			return fmt.Errorf("cracrt: re-registering fat binary vh%d: %w", fb.Handle, err)
		}
		def := &fatDef{module: fb.Module, funcs: make(map[string]cuda.Kernel, len(fb.Functions))}
		for _, name := range fb.Functions {
			k := r.resolveKernel(fb.Module, name)
			if k == nil {
				return fmt.Errorf("cracrt: kernel %s/%s not resolvable; call RegisterKernelTable first", fb.Module, name)
			}
			if err := lib.RegisterFunction(ph, name, k); err != nil {
				return fmt.Errorf("cracrt: re-registering %s/%s: %w", fb.Module, name, err)
			}
			def.funcs[name] = k
		}
		r.mu.Lock()
		r.vf[crt.FatBinHandle(fb.Handle)] = ph
		r.fdefs[crt.FatBinHandle(fb.Handle)] = def
		r.mu.Unlock()
	}

	r.mu.Lock()
	r.nextS = max(r.nextS, crt.StreamHandle(active.MaxStream))
	r.nextE = max(r.nextE, crt.EventHandle(active.MaxEvent))
	r.nextF = max(r.nextF, crt.FatBinHandle(active.MaxFatBin))
	r.mu.Unlock()
	return nil
}

// RebindActive returns the active set the last Rebind rebuilt from:
// the restart hooks plan the payload of exactly those allocations.
func (r *Runtime) RebindActive() replaylog.ActiveSet {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rebound
}

// LiveSet is the arena part of an active set, as the library takes it.
func LiveSet(as replaylog.ActiveSet) cuda.LiveSet {
	conv := func(in []replaylog.Allocation) []cuda.Allocation {
		out := make([]cuda.Allocation, len(in))
		for i, a := range in {
			out[i] = cuda.Allocation(a)
		}
		return out
	}
	return cuda.LiveSet{
		cuda.ArenaDevice:  conv(as.Device),
		cuda.ArenaPinned:  conv(as.Pinned),
		cuda.ArenaManaged: conv(as.Managed),
	}
}

// Bindings maps live virtual handles to the physical handles of the
// lower half they were rebuilt in.
type Bindings struct {
	Streams map[crt.StreamHandle]cuda.Stream
	Events  map[crt.EventHandle]cuda.Event
	FatBins map[crt.FatBinHandle]cuda.FatBinaryHandle
}

// Bindings returns a copy of the runtime's handle maps.
func (r *Runtime) Bindings() Bindings {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Bindings{Streams: maps.Clone(r.vs), Events: maps.Clone(r.ve), FatBins: maps.Clone(r.vf)}
}

func (r *Runtime) resolveKernel(module, name string) cuda.Kernel {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if mod, ok := r.kernelsByModule[module]; ok {
		return mod[name]
	}
	return nil
}
