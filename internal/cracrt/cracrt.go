// Package cracrt implements CRAC's upper-half runtime: the "dummy
// libcuda" of Figure 1 in the paper. Every CUDA call an application makes
// is dispatched through a trampoline — an fs-register switch plus an
// indirect jump through the entry-point table published by the lower-half
// helper program — into the active CUDA library in the lower half.
//
// The runtime additionally:
//
//   - logs every resource-creating/destroying call for restart replay
//     (Section 3.1 "Log-and-replay", Section 3.2.4);
//   - virtualizes stream, event, and fat-binary handles so that the
//     application's handles survive a restart onto a fresh lower half
//     (the "patching of fat-binary-handle" of Section 3.2.5);
//   - retains the application's kernel function table (the upper-half
//     fat binary contents) so kernels can be re-registered at restart.
package cracrt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crt"
	"repro/internal/cuda"
	"repro/internal/fsgs"
	"repro/internal/gpusim"
	"repro/internal/replaylog"
)

// EntryTable maps CUDA API symbols to their lower-half entry addresses,
// as published by the helper program at launch (and re-published by the
// fresh helper after restart).
type EntryTable map[string]uint64

// Symbols is the list of CUDA entry points the upper half needs; the
// lower-half helper exports exactly these.
var Symbols = []string{
	"cudaMalloc", "cudaFree", "cudaMallocHost", "cudaHostAlloc", "cudaFreeHost",
	"cudaMallocManaged", "cudaMemcpy", "cudaMemcpyAsync", "cudaMemset",
	"cudaStreamCreate", "cudaStreamDestroy", "cudaStreamSynchronize",
	"cudaEventCreate", "cudaEventDestroy", "cudaEventRecord",
	"cudaEventSynchronize", "cudaEventElapsedTime", "cudaStreamWaitEvent",
	"cudaMemGetInfo",
	"__cudaRegisterFatBinary", "__cudaRegisterFunction", "__cudaUnregisterFatBinary",
	"cudaPushCallConfiguration", "cudaPopCallConfiguration", "cudaLaunchKernel",
	"cudaDeviceSynchronize", "cudaGetDeviceProperties",
}

// fatDef retains the application-side definition of a fat binary: the
// module name and the Go kernel functions (standing in for the device
// code in the application's text segment, which survives checkpoint).
type fatDef struct {
	module string
	funcs  map[string]cuda.Kernel
}

// Runtime is the CRAC binding of crt.Runtime.
type Runtime struct {
	sw  fsgs.Switcher
	log *replaylog.Log
	// observer, when set, sees every logged call (Observe).
	observer atomic.Pointer[func(replaylog.Entry)]

	mu      sync.RWMutex // guards lib/entries/handle maps; held for read on the hot path
	lib     *cuda.Library
	entries EntryTable
	heap    *crt.AppHeap

	vs    map[crt.StreamHandle]cuda.Stream
	ve    map[crt.EventHandle]cuda.Event
	vf    map[crt.FatBinHandle]cuda.FatBinaryHandle
	fdefs map[crt.FatBinHandle]*fatDef
	// kernelsByModule lets a restarted process resolve kernels by name
	// when the in-memory fdefs are gone (cross-process restore).
	kernelsByModule map[string]map[string]cuda.Kernel
	nextS           crt.StreamHandle
	nextE           crt.EventHandle
	nextF           crt.FatBinHandle
	rebound         replaylog.ActiveSet // what the last Rebind rebuilt

	launches atomic.Uint64
	others   atomic.Uint64

	// launchGate is the device-mutation half of Session.Quiesce: kernel
	// launches, the memory-writing CUDA calls (Memset, Memcpy,
	// MemcpyAsync) and the arena calls (the cudaMalloc and free family)
	// hold the read side for the duration of the call, and quiescing
	// takes the write side — so once QuiesceLaunches returns, none of
	// them is mid-flight and none can touch memory until
	// ResumeLaunches. For the arena calls that makes the library call
	// and its log entry one step at a checkpoint's cut: the arena layout
	// the cut freezes is exactly the one the logged calls built, never a
	// growth whose allocation the log does not hold yet.
	launchGate sync.RWMutex
}

// New creates the CRAC runtime over an initial lower half.
func New(lib *cuda.Library, entries EntryTable, sw fsgs.Switcher) *Runtime {
	if sw == nil {
		sw = fsgs.NewSyscall()
	}
	return &Runtime{
		sw:              sw,
		log:             replaylog.New(),
		lib:             lib,
		entries:         entries,
		heap:            crt.NewAppHeap(lib.Space()),
		vs:              make(map[crt.StreamHandle]cuda.Stream),
		ve:              make(map[crt.EventHandle]cuda.Event),
		vf:              make(map[crt.FatBinHandle]cuda.FatBinaryHandle),
		fdefs:           make(map[crt.FatBinHandle]*fatDef),
		kernelsByModule: make(map[string]map[string]cuda.Kernel),
	}
}

// Log returns the call log. It holds the log's normal form plus the
// calls since its last compaction, not the whole history (see Observe).
func (r *Runtime) Log() *replaylog.Log { return r.log }

// Observe installs fn, which then sees every call the runtime logs, as
// it is logged: the full history, which the log itself does not keep.
// fn must not be nil; it runs inside the CUDA call, possibly from
// several goroutines at once. A restart (Rebind) leaves it installed and
// does not tell it, so calls the restart rolled back stay in what it
// saw.
func (r *Runtime) Observe(fn func(replaylog.Entry)) { r.observer.Store(&fn) }

// logCall appends e to the log and hands it to the observer.
func (r *Runtime) logCall(e replaylog.Entry) {
	r.log.Append(e)
	if fn := r.observer.Load(); fn != nil {
		(*fn)(e)
	}
}

// Library returns the current lower-half library.
func (r *Runtime) Library() *cuda.Library {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lib
}

// Switcher returns the fs-register switcher in use.
func (r *Runtime) Switcher() fsgs.Switcher { return r.sw }

// enter performs the upper→lower trampoline crossing: the symbol is
// resolved through the entry-point table (the indirection of Figure 1)
// and the fs base is switched. The caller must defer r.sw.Exit().
func (r *Runtime) enter(sym string) (*cuda.Library, error) {
	r.mu.RLock()
	lib := r.lib
	_, ok := r.entries[sym]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cracrt: no lower-half entry point for %q", sym)
	}
	r.sw.Enter()
	return lib, nil
}

// Malloc implements crt.Runtime (logged for replay).
func (r *Runtime) Malloc(size uint64) (uint64, error) {
	r.launchGate.RLock()
	defer r.launchGate.RUnlock()
	r.others.Add(1)
	lib, err := r.enter("cudaMalloc")
	if err != nil {
		return 0, err
	}
	defer r.sw.Exit()
	addr, err := lib.Malloc(size)
	if err != nil {
		return 0, err
	}
	r.logCall(replaylog.Entry{Kind: replaylog.KindMalloc, Size: size, Addr: addr})
	return addr, nil
}

// Free implements crt.Runtime (logged for replay).
func (r *Runtime) Free(addr uint64) error {
	r.launchGate.RLock()
	defer r.launchGate.RUnlock()
	r.others.Add(1)
	lib, err := r.enter("cudaFree")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	kind := replaylog.KindFree
	if lib.Classify(addr) == cuda.PtrManaged {
		kind = replaylog.KindFreeManaged
	}
	if err := lib.Free(addr); err != nil {
		return err
	}
	r.logCall(replaylog.Entry{Kind: kind, Addr: addr})
	return nil
}

// MallocHost implements crt.Runtime (logged for replay).
func (r *Runtime) MallocHost(size uint64) (uint64, error) {
	r.launchGate.RLock()
	defer r.launchGate.RUnlock()
	r.others.Add(1)
	lib, err := r.enter("cudaMallocHost")
	if err != nil {
		return 0, err
	}
	defer r.sw.Exit()
	addr, err := lib.MallocHost(size)
	if err != nil {
		return 0, err
	}
	r.logCall(replaylog.Entry{Kind: replaylog.KindMallocHost, Size: size, Addr: addr})
	return addr, nil
}

// HostAlloc implements crt.Runtime (logged; only active buffers are
// re-registered at restart, per Section 3.2.4).
func (r *Runtime) HostAlloc(size uint64) (uint64, error) {
	r.launchGate.RLock()
	defer r.launchGate.RUnlock()
	r.others.Add(1)
	lib, err := r.enter("cudaHostAlloc")
	if err != nil {
		return 0, err
	}
	defer r.sw.Exit()
	addr, err := lib.HostAlloc(size)
	if err != nil {
		return 0, err
	}
	r.logCall(replaylog.Entry{Kind: replaylog.KindHostAlloc, Size: size, Addr: addr})
	return addr, nil
}

// FreeHost implements crt.Runtime (logged for replay).
func (r *Runtime) FreeHost(addr uint64) error {
	r.launchGate.RLock()
	defer r.launchGate.RUnlock()
	r.others.Add(1)
	lib, err := r.enter("cudaFreeHost")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	kind := replaylog.KindFreeHost
	if lib.Classify(addr) == cuda.PtrHost {
		kind = replaylog.KindFreeHostAlloc
	}
	if err := lib.FreeHost(addr); err != nil {
		return err
	}
	r.logCall(replaylog.Entry{Kind: kind, Addr: addr})
	return nil
}

// MallocManaged implements crt.Runtime (logged for replay).
func (r *Runtime) MallocManaged(size uint64) (uint64, error) {
	r.launchGate.RLock()
	defer r.launchGate.RUnlock()
	r.others.Add(1)
	lib, err := r.enter("cudaMallocManaged")
	if err != nil {
		return 0, err
	}
	defer r.sw.Exit()
	addr, err := lib.MallocManaged(size)
	if err != nil {
		return 0, err
	}
	r.logCall(replaylog.Entry{Kind: replaylog.KindMallocManaged, Size: size, Addr: addr})
	return addr, nil
}

// Memcpy implements crt.Runtime. Pointers pass straight through to the
// lower half — no buffer copying, the core of CRAC's low overhead.
func (r *Runtime) Memcpy(dst, src, n uint64, kind crt.MemcpyKind) error {
	r.launchGate.RLock()
	defer r.launchGate.RUnlock()
	r.others.Add(1)
	lib, err := r.enter("cudaMemcpy")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	return lib.Memcpy(dst, src, n, kind)
}

// MemcpyAsync implements crt.Runtime.
func (r *Runtime) MemcpyAsync(dst, src, n uint64, kind crt.MemcpyKind, s crt.StreamHandle) error {
	r.launchGate.RLock()
	defer r.launchGate.RUnlock()
	r.others.Add(1)
	lib, err := r.enter("cudaMemcpyAsync")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	ps, err := r.stream(s)
	if err != nil {
		return err
	}
	return lib.MemcpyAsync(dst, src, n, kind, ps)
}

// Memset implements crt.Runtime.
func (r *Runtime) Memset(addr uint64, value byte, n uint64) error {
	r.launchGate.RLock()
	defer r.launchGate.RUnlock()
	r.others.Add(1)
	lib, err := r.enter("cudaMemset")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	return lib.Memset(addr, value, n)
}

func (r *Runtime) stream(s crt.StreamHandle) (cuda.Stream, error) {
	if s == crt.DefaultStream {
		return cuda.DefaultStream, nil
	}
	r.mu.RLock()
	ps, ok := r.vs[s]
	r.mu.RUnlock()
	if !ok {
		return 0, &cuda.Error{Code: cuda.ErrorInvalidResourceHandle, Op: "stream", Msg: "unknown virtual stream"}
	}
	return ps, nil
}

// StreamCreate implements crt.Runtime (logged; active streams are
// recreated at restart).
func (r *Runtime) StreamCreate() (crt.StreamHandle, error) {
	r.others.Add(1)
	lib, err := r.enter("cudaStreamCreate")
	if err != nil {
		return 0, err
	}
	defer r.sw.Exit()
	ps, err := lib.StreamCreate()
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.nextS++
	h := r.nextS
	r.vs[h] = ps
	r.mu.Unlock()
	r.logCall(replaylog.Entry{Kind: replaylog.KindStreamCreate, Handle: uint64(h)})
	return h, nil
}

// StreamDestroy implements crt.Runtime (logged).
func (r *Runtime) StreamDestroy(s crt.StreamHandle) error {
	r.others.Add(1)
	lib, err := r.enter("cudaStreamDestroy")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	ps, err := r.stream(s)
	if err != nil {
		return err
	}
	r.mu.Lock()
	delete(r.vs, s)
	r.mu.Unlock()
	if err := lib.StreamDestroy(ps); err != nil {
		return err
	}
	r.logCall(replaylog.Entry{Kind: replaylog.KindStreamDestroy, Handle: uint64(s)})
	return nil
}

// StreamSynchronize implements crt.Runtime.
func (r *Runtime) StreamSynchronize(s crt.StreamHandle) error {
	r.others.Add(1)
	lib, err := r.enter("cudaStreamSynchronize")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	ps, err := r.stream(s)
	if err != nil {
		return err
	}
	return lib.StreamSynchronize(ps)
}

func (r *Runtime) event(e crt.EventHandle) (cuda.Event, error) {
	r.mu.RLock()
	pe, ok := r.ve[e]
	r.mu.RUnlock()
	if !ok {
		return 0, &cuda.Error{Code: cuda.ErrorInvalidResourceHandle, Op: "event", Msg: "unknown virtual event"}
	}
	return pe, nil
}

// EventCreate implements crt.Runtime (logged).
func (r *Runtime) EventCreate() (crt.EventHandle, error) {
	r.others.Add(1)
	lib, err := r.enter("cudaEventCreate")
	if err != nil {
		return 0, err
	}
	defer r.sw.Exit()
	pe, err := lib.EventCreate()
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.nextE++
	h := r.nextE
	r.ve[h] = pe
	r.mu.Unlock()
	r.logCall(replaylog.Entry{Kind: replaylog.KindEventCreate, Handle: uint64(h)})
	return h, nil
}

// EventDestroy implements crt.Runtime (logged).
func (r *Runtime) EventDestroy(e crt.EventHandle) error {
	r.others.Add(1)
	lib, err := r.enter("cudaEventDestroy")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	pe, err := r.event(e)
	if err != nil {
		return err
	}
	r.mu.Lock()
	delete(r.ve, e)
	r.mu.Unlock()
	if err := lib.EventDestroy(pe); err != nil {
		return err
	}
	r.logCall(replaylog.Entry{Kind: replaylog.KindEventDestroy, Handle: uint64(e)})
	return nil
}

// EventRecord implements crt.Runtime.
func (r *Runtime) EventRecord(e crt.EventHandle, s crt.StreamHandle) error {
	r.others.Add(1)
	lib, err := r.enter("cudaEventRecord")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	pe, err := r.event(e)
	if err != nil {
		return err
	}
	ps, err := r.stream(s)
	if err != nil {
		return err
	}
	return lib.EventRecord(pe, ps)
}

// EventSynchronize implements crt.Runtime.
func (r *Runtime) EventSynchronize(e crt.EventHandle) error {
	r.others.Add(1)
	lib, err := r.enter("cudaEventSynchronize")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	pe, err := r.event(e)
	if err != nil {
		return err
	}
	return lib.EventSynchronize(pe)
}

// EventElapsed implements crt.Runtime.
func (r *Runtime) EventElapsed(start, end crt.EventHandle) (time.Duration, error) {
	r.others.Add(1)
	lib, err := r.enter("cudaEventElapsedTime")
	if err != nil {
		return 0, err
	}
	defer r.sw.Exit()
	ps, err := r.event(start)
	if err != nil {
		return 0, err
	}
	pe, err := r.event(end)
	if err != nil {
		return 0, err
	}
	return lib.EventElapsed(ps, pe)
}

// StreamWaitEvent implements crt.Runtime. Pure synchronization: not
// logged (the dependency is drained away before any checkpoint).
func (r *Runtime) StreamWaitEvent(s crt.StreamHandle, e crt.EventHandle) error {
	r.others.Add(1)
	lib, err := r.enter("cudaStreamWaitEvent")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	ps, err := r.stream(s)
	if err != nil {
		return err
	}
	pe, err := r.event(e)
	if err != nil {
		return err
	}
	return lib.StreamWaitEvent(ps, pe)
}

// MemGetInfo implements crt.Runtime.
func (r *Runtime) MemGetInfo() (uint64, uint64, error) {
	r.others.Add(1)
	lib, err := r.enter("cudaMemGetInfo")
	if err != nil {
		return 0, 0, err
	}
	defer r.sw.Exit()
	return lib.MemGetInfo()
}

// RegisterFatBinary implements crt.Runtime (logged; re-registered on
// restart with handle patching).
func (r *Runtime) RegisterFatBinary(module string) (crt.FatBinHandle, error) {
	r.others.Add(1)
	lib, err := r.enter("__cudaRegisterFatBinary")
	if err != nil {
		return 0, err
	}
	defer r.sw.Exit()
	ph, err := lib.RegisterFatBinary(module)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.nextF++
	h := r.nextF
	r.vf[h] = ph
	r.fdefs[h] = &fatDef{module: module, funcs: make(map[string]cuda.Kernel)}
	r.mu.Unlock()
	r.logCall(replaylog.Entry{Kind: replaylog.KindRegisterFatBinary, Handle: uint64(h), Module: module})
	return h, nil
}

// RegisterFunction implements crt.Runtime (logged; the Go kernel func is
// retained as the stand-in for device code in the application image).
func (r *Runtime) RegisterFunction(h crt.FatBinHandle, name string, k cuda.Kernel) error {
	r.others.Add(1)
	lib, err := r.enter("__cudaRegisterFunction")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	r.mu.Lock()
	ph, ok := r.vf[h]
	def := r.fdefs[h]
	r.mu.Unlock()
	if !ok || def == nil {
		return &cuda.Error{Code: cuda.ErrorInvalidResourceHandle, Op: "registerFunction", Msg: "unknown virtual fat binary"}
	}
	if err := lib.RegisterFunction(ph, name, k); err != nil {
		return err
	}
	r.mu.Lock()
	def.funcs[name] = k
	mod, ok := r.kernelsByModule[def.module]
	if !ok {
		mod = make(map[string]cuda.Kernel)
		r.kernelsByModule[def.module] = mod
	}
	mod[name] = k
	r.mu.Unlock()
	r.logCall(replaylog.Entry{Kind: replaylog.KindRegisterFunction, Handle: uint64(h), Name: name})
	return nil
}

// UnregisterFatBinary implements crt.Runtime (logged).
func (r *Runtime) UnregisterFatBinary(h crt.FatBinHandle) error {
	r.others.Add(1)
	lib, err := r.enter("__cudaUnregisterFatBinary")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	r.mu.Lock()
	ph, ok := r.vf[h]
	delete(r.vf, h)
	delete(r.fdefs, h)
	r.mu.Unlock()
	if !ok {
		return &cuda.Error{Code: cuda.ErrorInvalidResourceHandle, Op: "unregisterFatBinary", Msg: "unknown virtual fat binary"}
	}
	if err := lib.UnregisterFatBinary(ph); err != nil {
		return err
	}
	r.logCall(replaylog.Entry{Kind: replaylog.KindUnregisterFatBinary, Handle: uint64(h)})
	return nil
}

// LaunchKernel implements crt.Runtime. Per the paper's call-counting
// methodology, one application-level launch crosses the trampoline three
// times (push/pop call configuration plus the launch itself); Counters
// accounts for this via the 3× formula.
func (r *Runtime) LaunchKernel(h crt.FatBinHandle, name string, cfg crt.LaunchConfig, s crt.StreamHandle, args ...uint64) error {
	// A quiesced session blocks new launches here, before any trampoline
	// crossing, so a subsequent device drain cannot race a straggler.
	r.launchGate.RLock()
	defer r.launchGate.RUnlock()
	r.launches.Add(1)
	// cudaPushCallConfiguration / cudaPopCallConfiguration crossings.
	for _, sym := range [...]string{"cudaPushCallConfiguration", "cudaPopCallConfiguration"} {
		if _, err := r.enter(sym); err != nil {
			return err
		}
		r.sw.Exit()
	}
	lib, err := r.enter("cudaLaunchKernel")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	r.mu.RLock()
	ph, ok := r.vf[h]
	r.mu.RUnlock()
	if !ok {
		return &cuda.Error{Code: cuda.ErrorInvalidResourceHandle, Op: "launchKernel", Msg: "unknown virtual fat binary"}
	}
	ps, err := r.stream(s)
	if err != nil {
		return err
	}
	return lib.LaunchKernel(ph, name, cfg, ps, args...)
}

// QuiesceLaunches bars new kernel launches, memory writes and arena
// calls, and waits for in-flight ones to finish. The gate stays closed
// until ResumeLaunches; blocked calls wait (they do not fail). Part of
// Session.Quiesce.
func (r *Runtime) QuiesceLaunches() { r.launchGate.Lock() }

// ResumeLaunches reopens the launch gate closed by QuiesceLaunches.
func (r *Runtime) ResumeLaunches() { r.launchGate.Unlock() }

// DeviceSynchronize implements crt.Runtime.
func (r *Runtime) DeviceSynchronize() error {
	r.others.Add(1)
	lib, err := r.enter("cudaDeviceSynchronize")
	if err != nil {
		return err
	}
	defer r.sw.Exit()
	return lib.DeviceSynchronize()
}

// DeviceProperties implements crt.Runtime.
func (r *Runtime) DeviceProperties() gpusim.Properties {
	r.others.Add(1)
	lib, err := r.enter("cudaGetDeviceProperties")
	if err != nil {
		return gpusim.Properties{}
	}
	defer r.sw.Exit()
	return lib.DeviceProperties()
}

// HostAccess implements crt.Runtime. Host access to UVM pages faults
// through the pager but does not cross the trampoline (it is a hardware
// page fault, not a CUDA call) — the reason CRAC's UVM support costs
// nothing at runtime, unlike CRUM's mprotect-based shadow pages.
//
// The call itself is gated by Quiesce (the page migration and the dirty
// stamp land inside it), but the returned view is raw memory: writing
// through a view retained across a Quiesce or a concurrent-checkpoint
// arming bypasses the gates and the copy-on-write preservation, exactly
// as a raw pointer would on real hardware. Re-acquire views instead of
// retaining them, or perform writes through gated calls (Memset/Memcpy
// handle managed addresses).
func (r *Runtime) HostAccess(addr, n uint64, write bool) ([]byte, error) {
	if write {
		r.launchGate.RLock()
		defer r.launchGate.RUnlock()
	}
	r.mu.RLock()
	lib := r.lib
	r.mu.RUnlock()
	return lib.HostAccess(addr, n, write)
}

// AppAlloc implements crt.Runtime (plain upper-half memory; not a CUDA
// call, so neither counted nor logged).
func (r *Runtime) AppAlloc(size uint64) (uint64, error) { return r.heap.Alloc(size) }

// AppFree implements crt.Runtime.
func (r *Runtime) AppFree(addr uint64) error { return r.heap.Free(addr) }

// Counters implements crt.Runtime.
func (r *Runtime) Counters() crt.Counters {
	return crt.Counters{LaunchKernel: r.launches.Load(), OtherCalls: r.others.Load()}
}

var _ crt.Runtime = (*Runtime)(nil)
