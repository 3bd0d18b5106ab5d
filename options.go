package crac

import (
	"repro/internal/dmtcp"
	"repro/internal/gpusim"
)

// An Option configures a Session built by New, Restore, or RestoreFrom.
// The zero configuration (no options) matches the paper's main setup: a
// Tesla V100, the syscall fs switch, ASLR off, and the parallel data
// path using every CPU.
type Option func(*settings)

// settings is the resolved option set.
type settings struct {
	prop        gpusim.Properties
	switcher    SwitcherKind
	workers     int
	shardSize   int
	incremental int // max deltas per base; 0 = incremental off
	aslr        bool
	aslrSeed    int64
	budget      *dmtcp.WorkerBudget // nil: per-process default pools

	deviceArenaChunk  uint64
	pinnedArenaChunk  uint64
	managedArenaChunk uint64

	kernels *KernelRegistry
}

func resolve(opts []Option) settings {
	var s settings
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithDevice selects the simulated device properties (default: Tesla
// V100).
func WithDevice(prop gpusim.Properties) Option {
	return func(s *settings) { s.prop = prop }
}

// WithSwitcher selects the fs-register switch mechanism of the
// upper→lower trampoline (default: SwitchSyscall, the unpatched-kernel
// configuration of the paper's main experiments).
func WithSwitcher(k SwitcherKind) Option {
	return func(s *settings) { s.switcher = k }
}

// WithWorkers bounds the checkpoint/restart data-path fan-out (image
// write pipeline, active-malloc drain, region/memory refill): n<=0 uses
// all CPUs, n==1 forces the serial reference path, which produces
// byte-identical images.
func WithWorkers(n int) Option {
	return func(s *settings) { s.workers = n }
}

// WithShardSize overrides the image shard granularity in bytes (0 =
// the format default). A chain whose shard size changes rotates to a
// fresh base.
func WithShardSize(bytes int) Option {
	return func(s *settings) { s.shardSize = bytes }
}

// WithIncremental enables incremental checkpointing: CheckpointTo
// writes a full base image, then up to n delta images — each
// carrying only the memory pages and allocation bytes written since its
// parent — before rotating to a fresh base. Deltas name their parent
// image, so restoring the chain tip transparently materializes
// base + deltas (RestartFrom / RestoreFrom / OpenImageFrom follow the
// lineage through the same Store). n <= 0 disables incremental mode.
//
// Only store-bound checkpoints join a chain: a plain Session.Checkpoint
// to an io.Writer has no name for a parent to refer to and always
// writes a self-contained image. A restart breaks the chain — the next
// checkpoint after it is a base.
func WithIncremental(n int) Option {
	return func(s *settings) { s.incremental = n }
}

// WithConcurrentCheckpoint does nothing: every checkpoint is a
// snapshot-and-release checkpoint. The symbol remains only because the
// repository benchmark (benchmark/fleet.go, which a code PR may not
// edit) still names it; it goes with the next benchmark revision.
func WithConcurrentCheckpoint() Option {
	return func(*settings) {}
}

// WithASLR enables address-space randomization with the given seed.
// CRAC requires ASLR off (the default); enabling it demonstrates the
// replay-mismatch failure of paper Section 3.2.4 (see
// ErrReplayMismatch).
func WithASLR(seed int64) Option {
	return func(s *settings) { s.aslr, s.aslrSeed = true, seed }
}

// WithArenaChunks tunes the lower-half arena growth chunk sizes, passed
// through to the CUDA library (0 keeps each default).
func WithArenaChunks(device, pinned, managed uint64) Option {
	return func(s *settings) {
		s.deviceArenaChunk, s.pinnedArenaChunk, s.managedArenaChunk = device, pinned, managed
	}
}

// withWorkerBudget attaches the session's checkpoint pipeline to a
// shared resourcing domain. Pool wires this for every session it
// opens; it is not part of the public option surface because budgets
// only make sense with the admission control a Pool adds around them.
func withWorkerBudget(b *dmtcp.WorkerBudget) Option {
	return func(s *settings) { s.budget = b }
}

// WithKernels registers the application's kernel tables on the new
// session, making module kernels resolvable at restart in a
// process that never executed the original RegisterFunction calls.
// Required for cross-process Restore / RestoreFrom; harmless elsewhere.
func WithKernels(reg *KernelRegistry) Option {
	return func(s *settings) { s.kernels = reg.clone() }
}
