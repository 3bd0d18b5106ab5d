// Package crac is a reproduction of "CRAC: Checkpoint-Restart
// Architecture for CUDA with Streams and UVM" (Jain & Cooperman,
// SC 2020) as a pure-Go library over a simulated CUDA substrate.
//
// # Sessions
//
// New launches a Session — a split-process CUDA execution: the
// application's upper half plus a lower-half helper program owning the
// (simulated) CUDA library — configured through functional options:
//
//	s, err := crac.New(crac.WithWorkers(8), crac.WithIncremental(15))
//
// The zero option set matches the paper's main configuration (Tesla
// V100, syscall fs switch, ASLR off; images are uncompressed, as in
// the paper's experiments). The application
// programs against s.Runtime(), and the same code runs natively
// (NewNative), under CRAC, or under the proxy-based baseline
// (internal/proxy) used in the paper's Table 3 comparison.
//
// # Checkpoint and restart
//
// A checkpoint drains all CUDA streams, saves the memory of active
// mallocs, the CUDA call log's normal form (the live resources, not the
// call history) and the lower half's arena layout (chunk addresses and
// sizes, no bytes) together with every upper-half memory region, and
// omits the CUDA library itself. A restart verifies the image, loads a
// fresh lower half, restores the upper half, and issues the log's
// active set — every live allocation placed at its original address on
// arenas rebuilt from the layout, live streams, events and fat binaries
// recreated — so its cost follows the live state, not the call history.
// The allocator it builds is the one replaying the whole history would
// (the paper's log-and-replay design, Section 3; DESIGN.md invariant 1,
// whose oracle records the history with an observer on the runtime,
// since neither the log nor the image keeps it); with ASLR left on, the
// arenas land elsewhere and the restart fails with
// cracrt.ErrReplayMismatch, as replay would.
//
// Checkpoints land in a Store — a named-image destination with
// all-or-nothing writes and random-access reads. DirStore keeps one
// file per image with an optional retention policy, MemStore stays in
// memory; remote backends implement the same five methods:
//
//	store, _ := crac.NewDirStore("ckpts", 3) // keep the newest 3
//	stats, err := s.CheckpointTo(ctx, store, "gen042")
//	...
//	err = s.RestartFrom(ctx, store, "gen042")             // same process
//	s2, err := crac.RestoreFrom(ctx, store, "gen042",     // new process
//	    crac.WithKernels(reg))
//
// Every operation takes a context.Context, threaded down through the
// checkpoint engine, the parallel shard pipeline, and the plugin
// drains: a deadline or cancellation aborts the image mid-write,
// surfaces as ErrCancelled (also matching the context's own error via
// errors.Is), and — through a Store — leaves no partial image behind.
// The session survives a cancelled checkpoint and keeps running.
//
// Failures classify with errors.Is against the package's typed errors:
// ErrBadImage, ErrUnsupportedVersion, ErrReplayMismatch, ErrCancelled,
// ErrSessionClosed, ErrImageNotFound, ErrCorruptImage (integrity
// damage, distinct from structural ErrBadImage), and ErrTransient
// (retry-safe store failures; see Transient).
//
// # Images as artifacts
//
// OpenImage, OpenImageFile, and OpenImageFrom open a checkpoint image
// without restoring it; OpenImageFrom resolves a delta's parent chain
// through its Store with the same shard-index walk a restart takes,
// each member read once. Image.Info reports the layout of regions and
// sections; Image.Log summarizes the CUDA call log — its length and the
// resources active at checkpoint, which a restore reissues.
// cmd/cracinspect renders exactly this surface. For cross-process
// restores, a KernelRegistry (passed via WithKernels) resolves kernel
// names at restart, standing in for device code in the restored
// application's text segment.
//
// # Incremental checkpoints
//
// WithIncremental turns repeated CheckpointTo calls into a delta
// chain: a full base image, then up to n deltas carrying only the
// memory pages and allocation bytes written since their parent —
// page-granular write tracking for upper-half regions, content-hashed
// shards for plugin sections, and UVM-aware skipping of CPU-resident
// managed pages untouched since the previous checkpoint. On sparse
// workloads a delta is typically an order of magnitude smaller (and
// faster to write) than a full image:
//
//	s, _ := crac.New(crac.WithIncremental(8)) // ≤8 deltas per base
//	store, _ := crac.NewDirStore("ckpts", 4)  // Keep never orphans a chain
//	for i := 0; ; i++ {
//	    ... run the workload ...
//	    s.CheckpointTo(ctx, store, fmt.Sprintf("gen%03d", i))
//	}
//	...
//	s2, err := crac.RestoreFrom(ctx, store, "gen042") // materializes base+deltas
//
// Deltas name their parent image, and RestartFrom / RestoreFrom /
// OpenImageFrom follow the lineage through the same Store
// transparently; a delta opened outside its store still lists its
// tables for inspection, but its sections and call log live in its
// parents, and it restores only with ErrDeltaChain. A restart breaks
// the chain (the next checkpoint is a base), and DirStore retention
// keeps every ancestor a retained image needs. Image.Info reports a
// delta's depth, parent, and dirty ratio; cracinspect prints them.
//
// # Concurrent checkpoints
//
// Every checkpoint pauses the application only for the epoch cut: the
// session stops for the stream drain and the arming of a copy-on-write
// snapshot (O(metadata)), then the image write and the Store commit
// overlap with further execution. The committed image is the state at
// the cut, byte for byte, no matter how hard the application mutates
// memory during the overlap. CheckpointTo and Checkpoint block their
// caller until the commit; CheckpointAsync returns once the pause is
// over:
//
//	p, err := s.CheckpointAsync(ctx, store, "gen042")
//	if err != nil { ... }           // pause is already over here
//	... keep serving traffic ...
//	stats, err := p.Wait()          // commit point
//	fmt.Println(stats.PauseDuration, "paused of", stats.Duration)
//
// Only one checkpoint may be in flight (ErrCheckpointInFlight
// otherwise); a failed or cancelled overlapped checkpoint leaves no
// partial image and releases every retained copy-on-write page. The
// ctx passed to CheckpointAsync governs the overlapped write too — keep
// it live until Wait reports completion (cancelling it aborts the
// in-flight image). For a precise cut, bracket the arming with the
// Quiesce/Resume pair, which gates kernel launches, allocation calls
// and memory writes until resumed.
//
// # Restart without waiting
//
// Every restart is one route; RestartFrom, Restart and the Restore
// constructors wait for it, RestartAsync does not, turning restore
// latency into time-to-first-kernel: the visible phase reads only the
// image metadata, the call log and the arena layout, rebuilds the lower
// half from the active set, and maps
// every restored byte cold — the application (and its kernels) run
// immediately, faulting image shards in on first access, while a
// background prefetcher drains the rest of the image concurrently
// (device memory first, managed UVM pages last):
//
//	p, err := s.RestartAsync(ctx, store, "gen042")
//	if err != nil { ... }            // the session is already executing
//	... serve traffic; cold memory faults in on demand ...
//	stats, err := p.Wait()           // background drain finished
//	fmt.Println(stats.RestoreVisibleDuration, "visible of", stats.RestoreDuration)
//
// Once the drain completes, memory is byte-identical to the image
// (DESIGN.md invariant 11); before that, every access sees the same
// bytes through the fault path. Delta chains restore shard-by-shard
// from the nearest ancestor that owns each shard. Cancelling ctx stops
// only the prefetcher — the session stays fully usable (faults keep
// materializing) and restartable.
//
// # Live migration
//
// Migrate moves a running session onto a fresh one — typically with
// the destination store served by another host over the netstore
// protocol (NewHTTPStore / ServeStore). Pre-copy rounds stream
// concurrent delta checkpoints to the destination while the source
// keeps executing; when the dirty rate converges (or plateaus) the
// source is quiesced, a final delta is cut under the pause into a
// source-local store, and the destination session activates lazily —
// reading the pre-copied images locally and post-copy faulting the
// final cut across the wire while a background tail replicates it
// over and clears the source:
//
//	dst, _ := crac.NewHTTPStore("http://ckpt-host:9120")
//	src := crac.NewMemStore()                // final-cut staging
//	m, err := crac.Migrate(ctx, s, src, dst,
//	    crac.WithMigrateRounds(6))
//	if err != nil { ... }                    // source still resumable
//	fmt.Println(m.Report.Downtime, "down,",  // quiesce -> dest executing
//	    m.Report.PreCopyBytes, "pre-copied over",
//	    len(m.Report.Rounds)-1, "rounds")
//	... m.Dest is executing; serve from it ...
//	err = m.Wait()                           // post-copy tail drained:
//	                                         // dst holds the whole chain
//
// The migrated session's memory is byte-identical to a checkpoint
// taken at the final cut. The source is left quiesced —
// resume it to fail back, close it to complete the handoff. Network
// failures classify through Transient, so WithRetry composes around
// an HTTP store; cmd/cracmigrate packages both roles as a CLI.
//
// # Content-addressed storage and compaction
//
// NewCASStore wraps any Store with chunk-level deduplication: images
// become small manifests, shard payloads are stored once per unique
// content (SHA-256 keyed), and identical state across generations,
// sessions, and fleets is stored — and, over an HTTP destination that
// answers the batch-exists probe, transferred — only once:
//
//	cs := crac.NewCASStore(backing)          // any Store, local or HTTP
//	_, err := s.CheckpointTo(ctx, cs, "gen042") // manifest + novel chunks
//	...
//	rep, err := crac.DedupReport(ctx, cs)    // cracinspect -dedup
//	fmt.Printf("%.1fx dedup over %d chunks\n", rep.Ratio(), rep.Chunks)
//	_, err = cs.GC(ctx)                      // sweep unreferenced chunks
//
// Reads reconstruct the original bytes exactly (lazy restart's random
// access included), List hides the chunk namespace, and GC never
// touches a chunk a live manifest references.
//
// Compact squashes a delta chain's base + k deltas into one
// self-contained base from stored bytes alone — no session, no
// quiesce, safe while the writing session keeps checkpointing — then
// condemns the squashed ancestors no other lineage needs; GC sweeps
// the chunks they alone referenced:
//
//	st, err := crac.Compact(ctx, cs, "gen042")
//	fmt.Println("depth", st.Depth, "freed", st.Deleted)
//	_, err = cs.GC(ctx)
//
// The compacted tip restores byte-identically to the chain it
// replaced and keeps the identity live deltas bind to.
// SupervisorConfig.CompactAfter runs both whenever the chain depth
// reaches the bound.
//
// # Fault tolerance
//
// Every image ends in a mandatory whole-image checksum trailer, checked
// as the image is read; Image.Verify, VerifyChain
// and Scrub re-check stored images — Scrub quarantines corrupt images
// and the deltas their corruption condemns, and RepairChain re-bases a
// broken lineage. Flaky stores wrap with WithRetry, which retries
// transiently failing operations with bounded exponential backoff —
// the checkpoint pipeline itself runs exactly once per attempt.
// Supervisor composes all of it into a CRAFT-style restart loop:
// periodic checkpoints, failure detection, and automatic restart from
// the newest generation whose whole chain verifies:
//
//	sv, err := crac.NewSupervisor(crac.SupervisorConfig{
//	    Factory: newAppSession,          // a fresh session per process
//	    Store:   store,
//	    Retry:   crac.DefaultRetryPolicy(),
//	    Interval: time.Minute,
//	})
//	if err != nil { ... }
//	go sv.Run(ctx)                       // checkpoint every Interval
//	...
//	sv.ReportFailure(err)                // crash detected: next cycle
//	                                     // restarts from the newest
//	                                     // verified image
//	fmt.Println(sv.Stats().LastMTTR)
//
// A corrupt tip falls back generation by generation; when nothing
// intact remains the supervisor cold-starts a fresh factory session.
// crac.NewFaultStore injects deterministic store faults (transient and
// permanent errors, torn writes, bit flips, latency) for testing, and
// cracrun -verify/-scrub plus cracinspect -verify surface the
// integrity checks on the command line.
//
// # Multi-tenant pools
//
// Pool multiplexes many sessions over one Store for fleet-level
// serving: admission control and per-tenant quotas (sessions,
// in-flight checkpoints, stored bytes), one shared pipeline worker
// budget instead of per-session worker pools, and a stagger scheduler
// that admits epoch cuts against a global retained-page budget so
// concurrent copy-on-write checkpoints never stampede memory:
//
//	p, err := crac.NewPool(store,
//	    crac.WithPoolMaxSessions(1000),
//	    crac.WithPoolPageBudget(1<<16),  // pages retained across all cuts
//	    crac.WithPoolTenantDefaults(crac.TenantQuota{
//	        MaxSessions:    8,
//	        MaxStoredBytes: 256 << 20,
//	    }))
//	if err != nil { ... }
//	defer p.Close()
//
//	ps, err := p.Open("alice")           // admission + quota check
//	if errors.Is(err, crac.ErrQuotaExceeded) { ... } // tenant's own limit
//	if errors.Is(err, crac.ErrPoolSaturated) { ... } // pool full: back off, retry
//	_, err = ps.Checkpoint(ctx, "gen0")  // staggered cut, tenant-scoped name
//	err = ps.Restart(ctx, "gen0")
//
//	st := p.Stats()                      // p50/p95/p99, rejections,
//	fmt.Println(st.CheckpointP99)        // retained-page high-water mark
//
// Image names are scoped per tenant inside the shared store, stored
// bytes are metered as images stream in (an over-budget checkpoint
// aborts atomically and charges nothing), and Pool.Stats /
// Pool.TenantStats expose the latency distribution and admission
// counters per tenant and in aggregate.
//
// # Performance
//
// The checkpoint/restart data path is parallel and pipelined: region
// and allocation payloads are sharded across a worker pool while a
// single writer streams the image in deterministic order, and restores
// drain the image with a worker group the same way. WithWorkers and
// WithShardSize tune it; WithWorkers(1) selects the serial reference
// path, which produces byte-identical images.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper's evaluation.
package crac
