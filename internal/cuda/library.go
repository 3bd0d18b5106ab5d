// Package cuda simulates the closed-source NVIDIA CUDA runtime library
// that lives in CRAC's lower half. It provides the cudaMalloc family over
// deterministic allocation arenas, synchronous and stream-ordered memory
// copies, streams and events over the simulated device, Unified Virtual
// Memory through the uvm pager, and fat-binary registration.
//
// The library deliberately reproduces the properties that shaped CRAC's
// design (paper Section 3):
//
//   - Allocation is deterministic, so replaying a logged malloc/free
//     sequence on a fresh library instance reproduces every address
//     (Section 3.2.4).
//   - The library holds opaque internal state (the "cookie") that is
//     invalidated by naively restoring a saved image of the library over
//     a fresh instance — the failure that killed pre-CUDA-4.0
//     checkpointing approaches once UVA/UVM arrived (Sections 2.2, 3.1).
//   - Fat-binary handles differ across library instances, so a restart
//     must re-register fat binaries and patch handles (Section 3.2.5).
package cuda

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/addrspace"
	"repro/internal/gpusim"
	"repro/internal/spin"
	"repro/internal/uvm"
)

// Modelled CUDA driver latencies for the allocation family. Real
// cudaMalloc/cudaFree enter the closed-source driver (and cudaFree
// synchronizes the device), costing tens of microseconds — far more than
// this simulator's arena bookkeeping. The modelled costs matter twice:
// they keep the runtime cost of allocation-heavy applications honest,
// and they are what makes restart replay of a long cudaMalloc/cudaFree
// history slower than the checkpoint itself (the paper's Figure 3
// outliers, Heartwall and Streamcluster).
const (
	mallocCostNs = 20000 // cudaMalloc / cudaMallocHost / cudaMallocManaged / cudaHostAlloc
	freeCostNs   = 10000 // cudaFree / cudaFreeHost
)

var (
	costOnce   sync.Once
	mallocSpin int
	freeSpin   int
)

// driverAlloc models the driver-call latency of an allocation API.
func driverAlloc() {
	costOnce.Do(func() {
		mallocSpin = spin.Iters(mallocCostNs)
		freeSpin = spin.Iters(freeCostNs)
	})
	spin.ForIters(mallocSpin)
}

// driverFree models the driver-call latency of a free API.
func driverFree() {
	costOnce.Do(func() {
		mallocSpin = spin.Iters(mallocCostNs)
		freeSpin = spin.Iters(freeCostNs)
	})
	spin.ForIters(freeSpin)
}

// libraryEpoch distinguishes library instances process-wide; it seeds the
// per-instance cookie and the fat-binary handle namespace.
var libraryEpoch atomic.Uint64

// Config configures a Library instance.
type Config struct {
	Prop  gpusim.Properties
	Space *addrspace.Space

	// Arena growth parameters; zero values select defaults sized for the
	// simulated workloads.
	DeviceArenaChunk  uint64
	PinnedArenaChunk  uint64
	ManagedArenaChunk uint64
	// GrowthMmaps is how many separate mmap calls one arena-growth
	// episode issues (Section 3.2.1: one cudaMalloc, many mmaps).
	GrowthMmaps int
}

func (c *Config) fillDefaults() {
	if c.Prop.Name == "" {
		c.Prop = gpusim.TeslaV100()
	}
	if c.DeviceArenaChunk == 0 {
		c.DeviceArenaChunk = 16 << 20
	}
	if c.PinnedArenaChunk == 0 {
		c.PinnedArenaChunk = 4 << 20
	}
	if c.ManagedArenaChunk == 0 {
		c.ManagedArenaChunk = 16 << 20
	}
	if c.GrowthMmaps == 0 {
		c.GrowthMmaps = 4
	}
}

// Stream is a CUDA stream handle. Stream 0 is the default stream.
type Stream uint64

// DefaultStream is the implicit stream of stream-order APIs.
const DefaultStream Stream = 0

// Event is a CUDA event handle.
type Event uint64

// FatBinaryHandle identifies a registered fat binary. Values are unique
// per library instance: a fresh lower half hands out different handles,
// which is why CRAC must patch them at restart (Section 3.2.5).
type FatBinaryHandle uint64

// Kernel is the device-side body of a registered __global__ function.
// args carry the raw 64-bit kernel arguments (pointers and scalars), as
// the real launch ABI does.
type Kernel func(ctx *DevCtx, cfg gpusim.LaunchConfig, args []uint64)

type fatBinary struct {
	module  string
	kernels map[string]Kernel
}

// Library is one instance of the simulated CUDA runtime.
type Library struct {
	space *addrspace.Space
	dev   *gpusim.Device
	uvm   *uvm.Manager

	devArena *arena // cudaMalloc
	pinArena *arena // cudaMallocHost
	mgdArena *arena // cudaMallocManaged

	mu            sync.Mutex
	streams       map[Stream]*gpusim.Stream
	nextStream    Stream
	events        map[Event]*gpusim.Event
	nextEvent     Event
	fat           map[FatBinaryHandle]*fatBinary
	nextFat       FatBinaryHandle
	hostAllocs    map[uint64]uint64 // cudaHostAlloc registrations: addr -> size
	defaultStream *gpusim.Stream

	cookie     uint64 // opaque internal state; differs per instance
	uvmTouched atomic.Bool
	corrupt    atomic.Bool // set after a naive state restore
	apiCalls   atomic.Uint64
	destroyed  atomic.Bool
}

// NewLibrary initializes a fresh CUDA library instance in the lower half
// of cfg.Space.
func NewLibrary(cfg Config) (*Library, error) {
	cfg.fillDefaults()
	if cfg.Space == nil {
		cfg.Space = addrspace.New()
	}
	epoch := libraryEpoch.Add(1)
	l := &Library{
		space:      cfg.Space,
		dev:        gpusim.New(cfg.Prop),
		uvm:        uvm.NewManager(),
		streams:    make(map[Stream]*gpusim.Stream),
		events:     make(map[Event]*gpusim.Event),
		fat:        make(map[FatBinaryHandle]*fatBinary),
		hostAllocs: make(map[uint64]uint64),
		cookie:     epoch*0x9e3779b97f4a7c15 + 0x85ebca6b,
		nextFat:    FatBinaryHandle(epoch << 20), // instance-distinct handle namespace
	}
	l.devArena = newArena(cfg.Space, addrspace.HalfLower, "cudaMalloc", arenaLabels[ArenaDevice],
		cfg.DeviceArenaChunk, cfg.GrowthMmaps, cfg.Prop.GlobalMemBytes)
	l.pinArena = newArena(cfg.Space, addrspace.HalfLower, "cudaMallocHost", arenaLabels[ArenaPinned],
		cfg.PinnedArenaChunk, cfg.GrowthMmaps, 0)
	l.mgdArena = newArena(cfg.Space, addrspace.HalfLower, "cudaMallocManaged", arenaLabels[ArenaManaged],
		cfg.ManagedArenaChunk, cfg.GrowthMmaps, 0)
	ds, err := l.dev.NewStream()
	if err != nil {
		return nil, errf(ErrorInitializationError, "init", "default stream: %v", err)
	}
	l.defaultStream = ds
	return l, nil
}

// touch accounts one API call and enforces the corruption model: after a
// naive opaque-state restore, every call fails, reproducing the
// "inconsistent when called after restart" behaviour of Section 3.1.
func (l *Library) touch(op string) error {
	l.apiCalls.Add(1)
	if l.corrupt.Load() {
		return errf(ErrorStateCorrupt, op, "library state corrupted by naive image restore")
	}
	if l.destroyed.Load() {
		return errf(ErrorInitializationError, op, "library destroyed")
	}
	return nil
}

// Space returns the address space the library operates in.
func (l *Library) Space() *addrspace.Space { return l.space }

// Device returns the underlying simulated device.
func (l *Library) Device() *gpusim.Device { return l.dev }

// UVM returns the library's unified-memory manager.
func (l *Library) UVM() *uvm.Manager { return l.uvm }

// DeviceProperties mirrors cudaGetDeviceProperties.
func (l *Library) DeviceProperties() gpusim.Properties { return l.dev.Properties() }

// APICalls returns the cumulative CUDA API call count into this library.
func (l *Library) APICalls() uint64 { return l.apiCalls.Load() }

// DeviceSynchronize mirrors cudaDeviceSynchronize: it drains all streams.
func (l *Library) DeviceSynchronize() error {
	if err := l.touch("cudaDeviceSynchronize"); err != nil {
		return err
	}
	l.dev.Synchronize()
	return nil
}

// Destroy tears down the library: drains the device, unmaps the arenas,
// and marks the instance dead. Used when a lower half is discarded.
func (l *Library) Destroy() {
	if l.destroyed.Swap(true) {
		return
	}
	l.dev.Destroy()
	l.devArena.unmapAll()
	l.pinArena.unmapAll()
	l.mgdArena.unmapAll()
}

// RegisterFatBinary mirrors __cudaRegisterFatBinary: the upper half (or
// CRAC, at restart) registers an application module with the library.
func (l *Library) RegisterFatBinary(module string) (FatBinaryHandle, error) {
	if err := l.touch("__cudaRegisterFatBinary"); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextFat++
	h := l.nextFat
	l.fat[h] = &fatBinary{module: module, kernels: make(map[string]Kernel)}
	return h, nil
}

// RegisterFunction mirrors __cudaRegisterFunction for one __global__
// kernel in a registered fat binary.
func (l *Library) RegisterFunction(h FatBinaryHandle, name string, k Kernel) error {
	if err := l.touch("__cudaRegisterFunction"); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fb, ok := l.fat[h]
	if !ok {
		return errf(ErrorInvalidResourceHandle, "__cudaRegisterFunction", "unknown fat binary %#x", uint64(h))
	}
	if k == nil {
		return errf(ErrorInvalidValue, "__cudaRegisterFunction", "nil kernel %q", name)
	}
	fb.kernels[name] = k
	return nil
}

// UnregisterFatBinary mirrors __cudaUnregisterFatBinary (process exit
// cleanup).
func (l *Library) UnregisterFatBinary(h FatBinaryHandle) error {
	if err := l.touch("__cudaUnregisterFatBinary"); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.fat[h]; !ok {
		return errf(ErrorInvalidResourceHandle, "__cudaUnregisterFatBinary", "unknown fat binary %#x", uint64(h))
	}
	delete(l.fat, h)
	return nil
}

// FatBinaries returns the number of registered fat binaries.
func (l *Library) FatBinaries() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.fat)
}

// OpaqueStateSnapshot serializes the library's internal bookkeeping the
// way pre-CUDA-4.0 checkpointers saved the in-memory CUDA library. The
// blob is only restorable onto the *same* instance; restoring it onto a
// fresh instance corrupts that instance (see RestoreOpaqueState). Used by
// the ablation experiments.
func (l *Library) OpaqueStateSnapshot() []byte {
	b := make([]byte, 17)
	binary.LittleEndian.PutUint64(b[0:], l.cookie)
	binary.LittleEndian.PutUint64(b[8:], l.apiCalls.Load())
	if l.uvmTouched.Load() {
		b[16] = 1
	}
	return b
}

// RestoreOpaqueState installs a snapshot taken by OpaqueStateSnapshot.
// If the snapshot came from a different library instance — the only case
// possible after a real restart, since the original instance is gone —
// and that instance had touched UVM, the library is left permanently
// inconsistent: the restore itself "succeeds" (as the real memcpy-style
// restore would), but every subsequent call fails. This models the
// paper's observation that "the UVM resource had permanently modified
// the memory of the CUDA library's state" (Section 3.1, Log-and-replay).
func (l *Library) RestoreOpaqueState(b []byte) error {
	if len(b) != 17 {
		return errf(ErrorInvalidValue, "restoreOpaqueState", "bad snapshot length %d", len(b))
	}
	cookie := binary.LittleEndian.Uint64(b[0:])
	usedUVM := b[16] == 1
	if cookie != l.cookie && usedUVM {
		l.corrupt.Store(true)
	}
	return nil
}

// Corrupt reports whether the library is in the post-naive-restore
// inconsistent state.
func (l *Library) Corrupt() bool { return l.corrupt.Load() }
