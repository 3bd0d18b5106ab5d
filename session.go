package crac

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addrspace"
	"repro/internal/cracplugin"
	"repro/internal/cracrt"
	"repro/internal/crt"
	"repro/internal/cuda"
	"repro/internal/dmtcp"
	"repro/internal/fsgs"
	"repro/internal/loader"
)

// Stats describes one checkpoint operation (regions, payload bytes, and
// the wall-time split between image writing and plugin hooks).
type Stats = dmtcp.Stats

// SwitcherKind selects the fs-register switching mechanism used by the
// upper→lower trampoline (paper Section 4.4.5).
type SwitcherKind int

// Switcher kinds.
const (
	// SwitchSyscall switches fs through a kernel call, as on an
	// unpatched Linux kernel (the default, matching the paper's main
	// experiments).
	SwitchSyscall SwitcherKind = iota
	// SwitchFSGSBase switches fs with the WRFSBASE instruction, as on a
	// kernel with the FSGSBASE patch.
	SwitchFSGSBase
	// SwitchNone performs no switching (used for calibration only; a
	// real split process always switches).
	SwitchNone
)

func (k SwitcherKind) newSwitcher() fsgs.Switcher {
	switch k {
	case SwitchFSGSBase:
		return fsgs.NewFSGSBase()
	case SwitchNone:
		return fsgs.None{}
	default:
		return fsgs.NewSyscall()
	}
}

func (s settings) libConfig(space *addrspace.Space) cuda.Config {
	return cuda.Config{
		Prop:              s.prop,
		Space:             space,
		DeviceArenaChunk:  s.deviceArenaChunk,
		PinnedArenaChunk:  s.pinnedArenaChunk,
		ManagedArenaChunk: s.managedArenaChunk,
	}
}

// Session is one CUDA application execution under CRAC: a single
// simulated process whose address space holds the checkpointed upper half
// (application) and a disposable lower half (helper program + active
// CUDA library), per Figure 1 of the paper.
type Session struct {
	cfg settings

	mu         sync.Mutex
	space      *addrspace.Space
	helper     *loader.Program
	lib        *cuda.Library
	rt         *cracrt.Runtime
	engine     *dmtcp.Engine
	plugin     *cracplugin.Plugin
	generation int // incremented on every restart

	// incr is the incremental-checkpoint chain state: the lineage of the
	// last committed CheckpointTo (nil: the next checkpoint is a base).
	// Guarded by mu; committed only after the Store.Put succeeded.
	incr *dmtcp.DeltaState

	// inflight is the concurrent checkpoint currently writing its image
	// in the background (nil: none). Guarded by mu; a second checkpoint
	// or a restart while one is in flight reports ErrCheckpointInFlight.
	inflight *Pending

	// lazy is the lazy restart currently draining in the background
	// (nil: none). Guarded by mu; a later restart or Close cancels it
	// before discarding the space it serves.
	lazy *lazyHandle

	// migrating marks a live migration in progress (crac.Migrate).
	// Guarded by mu. While set, only the migration itself may take
	// checkpoints — an interleaved user checkpoint would entangle its
	// delta lineage (and the plugin's single dirty baseline) with the
	// migration's pre-copy chain — and restarts are refused outright.
	migrating bool

	// qmu serializes Quiesce/Resume; quiesced is the nesting depth.
	qmu      sync.Mutex
	quiesced int
}

// buildLowerHalf loads a fresh helper program and CUDA library into
// space, returning the library and the published entry-point table.
func buildLowerHalf(cfg settings, space *addrspace.Space) (*loader.Program, *cuda.Library, cracrt.EntryTable, error) {
	helper, err := loader.NewLower(space).Load(loader.HelperSpec(cracrt.Symbols))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("crac: loading helper: %w", err)
	}
	lib, err := cuda.NewLibrary(cfg.libConfig(space))
	if err != nil {
		helper.Unload()
		return nil, nil, nil, fmt.Errorf("crac: initializing CUDA library: %w", err)
	}
	entries := make(cracrt.EntryTable, len(cracrt.Symbols))
	for _, sym := range cracrt.Symbols {
		addr, ok := helper.Entry(sym)
		if !ok {
			lib.Destroy()
			helper.Unload()
			return nil, nil, nil, fmt.Errorf("crac: helper does not export %q", sym)
		}
		entries[sym] = addr
	}
	return helper, lib, entries, nil
}

// aslrIncarnation makes each simulated process incarnation randomize its
// layout differently, as real ASLR does across exec().
var aslrIncarnation atomic.Uint64

func newSpace(cfg settings) *addrspace.Space {
	s := addrspace.New()
	if cfg.aslr {
		s.SetASLR(true, cfg.aslrSeed+int64(aslrIncarnation.Add(1))*0x9e3779b9)
	}
	return s
}

// New launches a CRAC session: it creates the process address space,
// loads the lower-half helper (publishing the CUDA entry-point table),
// initializes the CUDA library, and wires the trampoline runtime and
// the checkpoint engine. With no options the session matches the
// paper's main configuration (Tesla V100, syscall fs switch, no
// compression, ASLR off).
func New(opts ...Option) (*Session, error) {
	return newSession(resolve(opts))
}

func newSession(cfg settings) (*Session, error) {
	space := newSpace(cfg)
	helper, lib, entries, err := buildLowerHalf(cfg, space)
	if err != nil {
		return nil, err
	}
	rt := cracrt.New(lib, entries, cfg.switcher.newSwitcher())
	if cfg.kernels != nil {
		for module, funcs := range cfg.kernels.modules {
			rt.RegisterKernelTable(module, funcs)
		}
	}
	plugin := cracplugin.New(rt)
	plugin.Workers = cfg.workers
	engine := dmtcp.NewEngine()
	engine.Workers = cfg.workers
	engine.ShardSize = cfg.shardSize
	engine.Budget = cfg.budget
	engine.Register(plugin)
	return &Session{
		cfg:    cfg,
		space:  space,
		helper: helper,
		lib:    lib,
		rt:     rt,
		engine: engine,
		plugin: plugin,
	}, nil
}

// Runtime returns the CUDA runtime the application should program
// against (the upper half's "dummy libcuda").
func (s *Session) Runtime() crt.Runtime { return s.rt }

// CRACRuntime returns the concrete CRAC runtime, exposing the call log
// and kernel-table registration for cross-process restore.
func (s *Session) CRACRuntime() *cracrt.Runtime { return s.rt }

// Space returns the session's current address space. Unlike the lower
// half it survives Close (it is plain memory); use Library() == nil to
// detect a closed session. A restart replaces it, and a waited restart
// hands the old lower half's memory to the new space: a Slice view of
// the lower half must not be held across one.
func (s *Session) Space() *addrspace.Space {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.space
}

// Library returns the current lower-half CUDA library (nil once closed
// or after a failed restart).
func (s *Session) Library() *cuda.Library {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lib
}

// Generation reports how many restarts this session has been through.
func (s *Session) Generation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}

// SetRootBlob stores an application pointer-table blob in future images.
func (s *Session) SetRootBlob(b []byte) { s.plugin.SetRootBlob(b) }

// RootBlob returns the blob (after a restore, the one from the image).
func (s *Session) RootBlob() []byte { return s.plugin.RootBlob() }

// reserveCheckpointSlot claims the session's single checkpoint slot.
// Every checkpoint holds the slot from before its cut until its image
// committed or failed, so two checkpoints can never interleave their
// epoch cuts and plugin staging (which would corrupt the incremental
// skip baseline). While a migration holds the session, only its own
// rounds (migration == true) may claim the slot. The returned Pending
// doubles as the token; releaseCheckpoint gives the slot back.
func (s *Session) reserveCheckpointSlot(name string, migration bool) (*Pending, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lib == nil {
		return nil, ErrSessionClosed
	}
	if s.migrating && !migration {
		return nil, fmt.Errorf("%w: cannot checkpoint", ErrMigrationInFlight)
	}
	if s.inflight != nil {
		if s.inflight.name != "" {
			return nil, fmt.Errorf("%w: %q is still being written", ErrCheckpointInFlight, s.inflight.name)
		}
		return nil, ErrCheckpointInFlight
	}
	p := &Pending{name: name, done: make(chan struct{})}
	s.inflight = p
	return p, nil
}

func (s *Session) releaseCheckpoint() {
	s.mu.Lock()
	s.inflight = nil
	s.mu.Unlock()
}

// armFrozen is the stop-the-world window of a checkpoint. Unless the
// caller already holds a Quiesce, it micro-quiesces for the duration of
// the arming — launch gate (waits out in-flight Memset/Memcpy/launches,
// whose slice writes would otherwise span the arming unpreserved),
// device drain, then memory freeze — so no writer that resolved memory
// before the window can mutate it after the snapshot arms. The gates
// reopen before armFrozen returns; only the returned pause was
// application-visible.
func (s *Session) armFrozen(ctx context.Context, space *addrspace.Space, incremental bool, prev *dmtcp.DeltaState, name string) (*dmtcp.Frozen, time.Duration, error) {
	pauseStart := time.Now()
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.quiesced == 0 {
		s.rt.QuiesceLaunches()
		defer s.rt.ResumeLaunches()
		lib := s.Library()
		if lib == nil {
			return nil, 0, ErrSessionClosed
		}
		// Drain before freezing memory: in-flight kernels still write
		// their results, and the freeze must wait for those writes, not
		// deadlock them.
		if err := lib.DeviceSynchronize(); err != nil {
			return nil, 0, err
		}
		space.Freeze()
		defer space.Thaw()
	}
	// A copy-on-write snapshot reads frozen backing arrays directly,
	// bypassing the lazy fault gate — so a still-draining lazy restart
	// must fully materialize before the snapshot arms, or the image
	// would capture unmaterialized zeros.
	if err := space.DrainLazy(); err != nil {
		return nil, 0, err
	}
	fz, err := s.engine.FreezeCheckpoint(ctx, space, incremental, prev, name)
	if err != nil {
		return nil, 0, err
	}
	// The gate waits and the drain above are application-visible pause
	// too: charge them to the checkpoint's wall clock so Duration always
	// contains PauseDuration.
	fz.StartedAt(pauseStart)
	return fz, time.Since(pauseStart), nil
}

// putFunc is where a checkpoint's image goes: it calls write once per
// attempt with the destination and reports nil only when the image
// committed. Store.Put is one; toWriter adapts a plain io.Writer.
type putFunc func(ctx context.Context, name string, write func(io.Writer) error) error

func toWriter(w io.Writer) putFunc {
	return func(_ context.Context, _ string, write func(io.Writer) error) error { return write(w) }
}

// lineage is a checkpoint's prev-policy: which image, if any, it is a
// delta against. The zero value writes a standalone image and leaves
// the session's chain alone.
type lineage struct {
	// incremental writes a chain image and stages the plugin's skip
	// baseline, which is promoted when the image commits.
	incremental bool
	// own marks an image of the session's own WithIncremental chain:
	// the parent is resolved from s.incr under the rotation guards, and
	// a commit makes this image the chain tip.
	own bool
	// prev is the explicit parent used when own is false (migration
	// rounds thread their own pre-copy lineage).
	prev *dmtcp.DeltaState
}

// checkpoint is the one checkpoint lifecycle; every public entry point
// supplies only a sink, a door and a lineage:
//
//	reserve slot → resolve parent → armFrozen (the pause) ─┐ caller's goroutine
//	put(WriteFrozen) → Release → commit lineage → free slot ┘ background
//
// By the time it returns, the application may run: the image is written
// from the copy-on-write snapshot. Chain state and the plugin's skip
// baseline advance only after put reported the image committed; every
// retained page is released whether it did or not.
func (s *Session) checkpoint(ctx context.Context, put putFunc, name string, migration bool, lin lineage) (*Pending, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := s.reserveCheckpointSlot(name, migration)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	space := s.space
	prev := lin.prev
	if lin.own {
		prev = s.incrPrevLocked(name)
	}
	s.mu.Unlock()

	fz, pause, err := s.armFrozen(ctx, space, lin.incremental, prev, name)
	if err != nil {
		s.releaseCheckpoint()
		return nil, wrapCancelled(err)
	}

	go func() {
		err := put(ctx, name, func(w io.Writer) error {
			mw := &meterWriter{w: w}
			var werr error
			p.st, p.next, werr = s.engine.WriteFrozen(ctx, mw, fz)
			p.imageBytes = mw.n
			return werr
		})
		fz.Release()
		p.st.PauseDuration = pause
		if err != nil {
			p.next = nil
		} else if lin.incremental {
			// The image is durable: advance the plugin's drain baseline and
			// the chain together.
			s.plugin.CommitIncremental()
			if lin.own {
				s.mu.Lock()
				s.incr = p.next
				s.mu.Unlock()
			}
		}
		p.err = wrapCancelled(err)
		s.releaseCheckpoint()
		close(p.done)
	}()
	return p, nil
}

// meterWriter counts the bytes that actually crossed into the sink.
type meterWriter struct {
	w io.Writer
	n int64
}

func (m *meterWriter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	m.n += int64(n)
	return n, err
}

// Checkpoint drains the device and writes a self-contained checkpoint
// image to w. The session keeps running afterwards (DMTCP "checkpoint
// and continue"); the calling goroutine blocks, but the application's
// other goroutines are paused only for the drain + arming and run
// through the image write. Cancelling ctx aborts the shard pipeline
// mid-image and returns an error matching both ErrCancelled and the
// context's own error; the session remains fully usable, but whatever
// bytes already reached w are not a valid image (checkpoint through a
// Store for all-or-nothing semantics).
func (s *Session) Checkpoint(ctx context.Context, w io.Writer) (Stats, error) {
	p, err := s.checkpoint(ctx, toWriter(w), "", false, lineage{})
	if err != nil {
		return Stats{}, err
	}
	return p.Wait()
}

// CheckpointTo checkpoints into a Store under name: CheckpointAsync,
// waited on. The Put is atomic: a failed or cancelled checkpoint leaves
// no image (and no partial file) behind.
//
// With WithIncremental enabled, CheckpointTo transparently writes
// either a full v3 base or a delta against the previous store-bound
// checkpoint of this session: the first checkpoint (and every restart,
// shard-size change, or chain reaching its configured depth) produces a
// base; the rest carry only state written since their parent. The chain
// state advances only when the Put commits, so a failed or cancelled
// checkpoint never leaves the lineage pointing at an image that does
// not exist.
func (s *Session) CheckpointTo(ctx context.Context, store Store, name string) (Stats, error) {
	p, err := s.CheckpointAsync(ctx, store, name)
	if err != nil {
		return Stats{}, err
	}
	return p.Wait()
}

// incrPrevLocked resolves the lineage the next store-bound checkpoint
// should delta against (nil: write a base), applying the rotation
// guards. Caller holds s.mu.
func (s *Session) incrPrevLocked(name string) *dmtcp.DeltaState {
	prev := s.incr
	switch {
	case prev == nil:
	case prev.Depth >= s.cfg.incremental:
		prev = nil // chain is full: rotate to a fresh base
	case prev.InChain(name):
		// The target name is one the chain still depends on (e.g. a
		// fixed name reused every checkpoint): writing a delta there
		// would overwrite its own ancestor. Write a self-contained base
		// instead.
		prev = nil
	}
	return prev
}

// Pending is a checkpoint in flight: its snapshot armed inside the
// stop-the-world window and the image is being written in the
// background while the application executes.
type Pending struct {
	name string
	done chan struct{}
	st   Stats
	err  error

	// For the migration rounds: the lineage state of the committed image
	// and the bytes that crossed into the store.
	next       *dmtcp.DeltaState
	imageBytes int64
}

// Name returns the store name the checkpoint is being written under.
func (p *Pending) Name() string { return p.name }

// Done returns a channel closed when the checkpoint has committed (or
// failed); use it to select alongside application work.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Wait blocks until the checkpoint commits and returns its Stats. The
// error follows CheckpointTo's contract: on failure (including
// cancellation) the Store holds no partial image and the session keeps
// running.
func (p *Pending) Wait() (Stats, error) {
	<-p.done
	return p.st, p.err
}

// CheckpointAsync takes a snapshot-and-release checkpoint: the
// application is stopped only for the stream drain, the epoch cut, and
// the copy-on-write arming of the address space — all O(metadata) —
// and by the time CheckpointAsync returns, execution may continue. The
// shard pipeline, compression, and the Store commit run on a background
// goroutine against the snapshot; the committed image is the state at
// the cut, byte for byte, no matter how hard the application mutates
// memory during the overlap.
//
// With WithIncremental, the checkpoint joins the session's delta chain;
// the chain state and the plugin's skip baseline advance only when the
// Put commits.
//
// Only one checkpoint may be in flight: a second checkpoint (or a
// restart) while one is pending reports ErrCheckpointInFlight. A failed
// or cancelled checkpoint leaves no partial image in the Store and
// releases every retained copy-on-write page.
//
// ctx governs the overlapped write, not just the arming: it must stay
// live until Pending.Wait (or Done) reports completion. In particular,
// `defer cancel()` in a function that returns right after
// CheckpointAsync cancels the background write and the checkpoint
// surfaces ErrCancelled from Wait.
func (s *Session) CheckpointAsync(ctx context.Context, store Store, name string) (*Pending, error) {
	var lin lineage
	if s.cfg.incremental > 0 {
		lin = lineage{incremental: true, own: true}
	}
	return s.checkpoint(ctx, store.Put, name, false, lin)
}

// Restart simulates killing the process and restarting it from the image
// in r: the entire old address space (upper and lower halves, including
// the old CUDA library) is discarded; a fresh lower half is loaded; the
// upper-half regions are restored from the image; the fresh library's
// arenas are rebuilt from the image's layout and active set so every
// live allocation reappears at its original address; and the saved
// memory of active mallocs is refilled. The application continues through the same Runtime value,
// its virtual handles transparently re-mapped.
//
// Restart reads r to its end and restores the bytes exactly as
// RestartFrom restores a stored image. A v3 delta names a parent that
// only its Store can supply: a bare delta reports ErrDeltaChain. An
// image that does not parse or verify is rejected with the session
// untouched; a failure after the old lower half is torn down (including
// cancellation) leaves the session closed — only a fresh Restore can
// revive the image.
func (s *Session) Restart(ctx context.Context, r io.Reader) error {
	store, err := readImageStore(r)
	if err != nil {
		return wrapCancelled(err)
	}
	return s.RestartFrom(ctx, store, readerImage)
}

// readerImage names the one image readImageStore holds.
const readerImage = "image"

// readImageStore reads an image stream into a one-image store, so a
// restart from an io.Reader runs the store route.
func readImageStore(r io.Reader) (Store, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return &MemStore{m: map[string][]byte{readerImage: b}}, nil
}

// Rebase breaks the session's incremental lineage: the next store-
// bound checkpoint writes a self-contained v3 base instead of a delta,
// whatever the chain state was. Repair paths use it when the stored
// chain is no longer trustworthy (see RepairChain); it is also the
// escape hatch when a chain's store is being switched mid-session.
func (s *Session) Rebase() {
	s.mu.Lock()
	s.incr = nil
	s.mu.Unlock()
}

// Restore builds a brand-new session (a new process) from a checkpoint
// image — the cross-process restart path (cracrun writes an image; a
// later process restores it): New, then Restart. Pass WithKernels so
// the rebuild can resolve kernel names in the restored process, standing in
// for the device code in its text segment.
func Restore(ctx context.Context, r io.Reader, opts ...Option) (*Session, error) {
	store, err := readImageStore(r)
	if err != nil {
		return nil, wrapCancelled(err)
	}
	return RestoreFrom(ctx, store, readerImage, opts...)
}

// RestoreFrom builds a new session from the named image in a Store —
// New, then RestartFrom — following delta chains through the same
// Store.
func RestoreFrom(ctx context.Context, store Store, name string, opts ...Option) (*Session, error) {
	s, err := New(opts...)
	if err != nil {
		return nil, err
	}
	if err := s.RestartFrom(ctx, store, name); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close tears the session down. It is idempotent: a second Close (or a
// Close after a failed restart already tore the lower half down) is a
// no-op. Closing a quiesced session (a migrated source, say) releases
// the quiesce first: teardown unmaps the address space, which would
// otherwise deadlock against the frozen space's write gate.
func (s *Session) Close() {
	s.qmu.Lock()
	if s.quiesced > 0 {
		s.mu.Lock()
		space := s.space
		s.mu.Unlock()
		s.quiesced = 0
		space.Thaw()
		s.rt.ResumeLaunches()
	}
	s.qmu.Unlock()
	s.mu.Lock()
	lib, helper, lazy := s.lib, s.helper, s.lazy
	s.lib, s.helper, s.lazy = nil, nil, nil
	s.mu.Unlock()
	if lazy != nil {
		lazy.detach()
	}
	if lib != nil {
		lib.Destroy()
	}
	if helper != nil {
		helper.Unload()
	}
}

// Quiesce brings the session to a checkpointable standstill and holds
// it there: new kernel launches and allocation calls (the cudaMalloc
// and free family) block before they reach the library, the device
// drains, and every application-side memory mutation (WriteAt, writable
// Slice, mmap/munmap/mprotect) blocks until Resume. Reads are
// unaffected, so checkpoints may be taken while quiesced. Quiesce
// nests; each call must be balanced by exactly one Resume. It also
// implements dmtcp.Member for coordinated multi-rank checkpoints.
func (s *Session) Quiesce() error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.mu.Lock()
	lib, space := s.lib, s.space
	s.mu.Unlock()
	if lib == nil {
		return ErrSessionClosed
	}
	if s.quiesced > 0 {
		s.quiesced++
		return nil
	}
	// Order matters: bar new launches first (the gate also waits out
	// launches mid-enqueue), then drain what the device already holds,
	// then freeze memory — a drained kernel may still be writing its
	// results while the drain runs, so the freeze comes last.
	s.rt.QuiesceLaunches()
	if err := lib.DeviceSynchronize(); err != nil {
		s.rt.ResumeLaunches()
		return err
	}
	space.Freeze()
	s.quiesced = 1
	return nil
}

// WriteCheckpoint implements dmtcp.Member.
func (s *Session) WriteCheckpoint(w io.Writer) error {
	_, err := s.Checkpoint(context.Background(), w)
	return err
}

// A Session is a coordinated rank: Quiesce/WriteCheckpoint/Resume for
// Coordinator.Checkpoint, Restart for RestartAll.
var _ dmtcp.Restarter = (*Session)(nil)

// Resume releases one level of Quiesce, unblocking memory writes and
// kernel launches when the last level drops. An unbalanced Resume (no
// matching Quiesce) reports ErrNotQuiesced. Implements dmtcp.Member.
func (s *Session) Resume() error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.quiesced == 0 {
		return ErrNotQuiesced
	}
	s.quiesced--
	if s.quiesced == 0 {
		s.mu.Lock()
		space := s.space
		s.mu.Unlock()
		space.Thaw()
		s.rt.ResumeLaunches()
	}
	return nil
}

// NewNative builds the uninstrumented baseline: the same simulated device
// and CUDA library, bound directly (no trampoline, no logging, no
// checkpoint support). This is the "native" configuration of the paper's
// overhead measurements.
func NewNative(opts ...Option) (*crt.Native, error) {
	cfg := resolve(opts)
	space := newSpace(cfg)
	lib, err := cuda.NewLibrary(cfg.libConfig(space))
	if err != nil {
		return nil, err
	}
	return crt.NewNative(lib), nil
}
