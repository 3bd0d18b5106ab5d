package crac

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/addrspace"
	"repro/internal/cracplugin"
	"repro/internal/cracrt"
	"repro/internal/dmtcp"
	"repro/internal/replaylog"
)

// Restarting is a restart whose visible phase has completed: the
// session is already executing (RestartAsync returned), while the
// background prefetcher is still draining the image. Wait (or Done)
// observes the drain; the Stats it returns split the restore into the
// application-visible phase and the overlapped background drain.
//
// A failed or cancelled drain is not fatal: the remaining cold memory
// keeps materializing on demand, and Wait reports the drain's error
// (ErrCancelled for a cancelled context) while the session stays fully
// usable and restartable.
type Restarting struct{ h *lazyHandle }

// Done returns a channel closed when the background drain finished
// (successfully or not).
func (p *Restarting) Done() <-chan struct{} { return p.h.done }

// Wait blocks until the background drain finishes and returns the
// restore Stats (RestoreVisibleDuration / RestoreBackgroundDuration /
// RestoreDuration) and the drain's error, if any.
func (p *Restarting) Wait() (Stats, error) {
	<-p.h.done
	return p.h.st, p.h.err
}

// lazyHandle tracks one restart's background state on the session, so
// a later restart or Close can cancel the drain and close the image
// sources.
type lazyHandle struct {
	cancel    context.CancelFunc
	done      chan struct{}
	closeOnce sync.Once
	closers   []io.Closer
	st        Stats
	err       error
}

func (h *lazyHandle) closeSources() {
	h.closeOnce.Do(func() {
		for _, c := range h.closers {
			c.Close()
		}
	})
}

// detach cancels the drain, waits it out, and closes the sources —
// called when the space the handle serves is being discarded.
func (h *lazyHandle) detach() {
	h.cancel()
	<-h.done
	h.closeSources()
}

func closeAll(closers []io.Closer) {
	for _, c := range closers {
		c.Close()
	}
}

// chainRead says how openIndexChain reads each member of a chain.
type chainRead int

const (
	// chainLazy indexes a member by its headers and reads shards by
	// offset as they are needed: an unwaited restart.
	chainLazy chainRead = iota
	// chainWaited reads a member of at most dmtcp.PrefetchChunk bytes in
	// one request, and by offset otherwise: a waited restart and
	// Compact, which read every byte the chain resolves to anyway.
	chainWaited
	// chainWhole reads every member whole, to be held in memory after
	// its source closes: OpenImageFrom.
	chainWhole
)

// openIndexChain is the one chain walk: it opens the named image (and,
// for a delta, its whole parent chain) for random access, verifies each
// member, and links the shard indexes tip first, checking each parent's
// identity and shard grid (SetParent) and refusing a cycle or a walk
// past dmtcp.MaxChainDepth (ChainWalk). Restart, OpenImageFrom and
// Compact all resolve a chain through it; how a member is read is the
// caller's chainRead. Verification runs here, before a restart tears
// anything down: a member's trailer is checked in one sequential pass
// unless the chain is read lazily (a waited or whole read covers every
// byte anyway), and always when the member is held in memory (the pass
// costs no I/O) or has no per-shard hashes (a standalone image). Only
// an unwaited restart of a chain member read by offset relies on the
// shard hashes alone, checked as each shard decodes.
func openIndexChain(ctx context.Context, store Store, name string, read chainRead) ([]*dmtcp.ShardIndex, []io.Closer, error) {
	var chain []*dmtcp.ShardIndex
	var closers []io.Closer
	fail := func(err error) ([]*dmtcp.ShardIndex, []io.Closer, error) {
		closeAll(closers)
		return nil, nil, err
	}
	walk := dmtcp.ChainWalk{name: true}
	for cur := name; ; {
		src, size, err := store.GetAt(ctx, cur)
		if err != nil {
			if len(chain) > 0 {
				err = fmt.Errorf("%w: opening parent %q: %w", ErrDeltaChain, cur, err)
			}
			return fail(err)
		}
		closers = append(closers, src)
		var limit int64 // the largest member read in one request
		switch read {
		case chainWaited:
			limit = dmtcp.PrefetchChunk
		case chainWhole:
			limit = size
		}
		ix, err := dmtcp.OpenShardIndexWhole(src, size, limit)
		if err == nil && (read != chainLazy || ix.InMemory() || ix.Unhashed) {
			err = ix.VerifyTrailer()
		}
		if err != nil {
			return fail(fmt.Errorf("image %q: %w", cur, err))
		}
		if len(chain) > 0 {
			if err := chain[len(chain)-1].SetParent(ix); err != nil {
				return fail(err)
			}
		}
		chain = append(chain, ix)
		if !ix.Delta {
			return chain, closers, nil
		}
		if err := walk.Step(ix.Parent); err != nil {
			return fail(err)
		}
		cur = ix.Parent
	}
}

// lowerWindow is the lower-half window of every session's space
// (newSpace), which a restored arena layout must lie in.
var lowerWindow = addrspace.Window{Start: addrspace.DefaultLowerStart, End: addrspace.DefaultLowerEnd}

// restart is the one restart lifecycle; every entry point supplies
// only a store, a name, and whether its caller waits for the drain:
//
//	open index chain → verify → decode log + layout → guards → lower half → map cold → rebuild → plugin plans → arm gate → drain
//
// Everything before the guards only reads the image, so one that fails
// to open or verify leaves the session untouched. From the
// teardown of the old lower half on, a failure leaves the session
// closed. A waited restart runs the drain before it returns; an
// unwaited one starts it in the background.
func (s *Session) restart(ctx context.Context, store Store, name string, wait bool) (*Restarting, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	read := chainLazy
	if wait {
		read = chainWaited
	}
	chain, closers, err := openIndexChain(ctx, store, name, read)
	if err != nil {
		return nil, wrapCancelled(err)
	}
	failOpen := func(err error) (*Restarting, error) {
		closeAll(closers)
		return nil, wrapCancelled(err)
	}
	logBytes, err := chain[0].SectionBytes(cracplugin.SectionLog)
	if err != nil {
		return failOpen(err)
	}
	log, err := replaylog.DecodeBytes(logBytes)
	if err != nil {
		return failOpen(fmt.Errorf("%w: decoding image log: %v", ErrBadImage, err))
	}
	// The active set is derived once; the rebuild and the plugin's plans
	// share it. The layout is checked against it here, so a hostile
	// section fails before the teardown.
	active := log.Active()
	lowerBytes, err := chain[0].SectionBytes(cracplugin.SectionLower)
	if err != nil {
		return failOpen(err)
	}
	layout, err := cracplugin.DecodeLowerLayout(lowerBytes, lowerWindow, cracrt.LiveSet(active))
	if err != nil {
		return failOpen(fmt.Errorf("%w: %v", ErrBadImage, err))
	}

	// A quiesced session cannot restart: the rebuild would block on the
	// held launch gate, and the fresh address space could never balance
	// the pending Resume's Thaw. qmu stays held for the whole visible
	// phase (and a waited drain) so a racing Quiesce cannot freeze the
	// old space mid-swap.
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.quiesced > 0 {
		return failOpen(fmt.Errorf("%w: resume before restarting", ErrQuiesced))
	}
	s.mu.Lock()
	if s.migrating {
		// A restart mid-migration would discard the very state the
		// pre-copy rounds are moving.
		s.mu.Unlock()
		return failOpen(fmt.Errorf("%w: cannot restart", ErrMigrationInFlight))
	}
	if s.inflight != nil {
		// A restart discards the address space an overlapped checkpoint
		// is still reading from; wait the Pending out first.
		s.mu.Unlock()
		return failOpen(fmt.Errorf("%w: cannot restart", ErrCheckpointInFlight))
	}
	oldSpace, oldLib, oldHelper, oldLazy := s.space, s.lib, s.helper, s.lazy
	// The lower half is about to die: clear the pointers first so a
	// failure below (or a concurrent Close) can never tear the same
	// objects down twice.
	s.lib, s.helper, s.lazy = nil, nil, nil
	s.mu.Unlock()
	if oldLib == nil {
		return failOpen(ErrSessionClosed)
	}
	// A previous restart's drain serves the space that is about to be
	// discarded: stop it first.
	if oldLazy != nil {
		oldLazy.detach()
	}

	// The old process dies; a fresh lower half comes up. With ASLR off,
	// the helper and the arenas land at the same addresses. An unwaited
	// restart's space is written through FillCold as shards arrive in
	// the background; demand-zero mmap backing keeps its arena rebuild
	// (and so the visible phase) O(metadata) instead of O(arena bytes).
	// A waited restart writes every byte before it returns, so it keeps
	// heap backing: one sequential memclr instead of a page fault per
	// page, and no dependence on when the collector hands the previous
	// space's mappings back for reuse. It takes the old lower half's
	// backings over instead of allocating its own: the rebuild maps the
	// same arena chunks the teardown unmaps, and a fresh arena footprint
	// per restart would start a collection inside most restarts. The
	// teardown has synchronized the old device, so no kernel still holds
	// a view of them.
	if wait {
		oldSpace.Retire()
	}
	oldLib.Destroy()
	oldHelper.Unload()
	space := newSpace(s.cfg)
	space.SetMmapBacked(!wait)
	if wait {
		space.Reuse(oldSpace)
		defer space.Reuse(nil)
	}
	helper, lib, entries, err := buildLowerHalf(s.cfg, space)
	if err != nil {
		return failOpen(err)
	}
	abort := func(err error) (*Restarting, error) {
		lib.Destroy()
		helper.Unload()
		return failOpen(err)
	}

	// DMTCP maps the upper-half regions first, content cold...
	restorer, err := dmtcp.NewLazyRestorer(space, chain)
	if err != nil {
		return abort(err)
	}
	restorer.Workers = s.engine.Workers
	if !wait {
		// A background drain draws a slot of the engine's budget per
		// chunk, so a pooled session's drain shares the pool's bound
		// with its checkpoint pipelines. A waited drain is the caller's
		// own foreground work and does not queue behind them.
		restorer.Budget = s.engine.Budget
	}
	if err := restorer.MapRegions(); err != nil {
		return abort(err)
	}
	// ...then the runtime rebuilds the fresh library from the layout and
	// the active set, recreating every live allocation at its original
	// address, and the CRAC plugin binds the active mallocs to their
	// saved bytes.
	if err := s.rt.Rebind(lib, entries, log, active, layout); err != nil {
		return abort(err)
	}
	if err := s.engine.RunLazyRestartHooks(ctx, restorer); err != nil {
		return abort(err)
	}
	// Arm the gate, then mark everything cold. From here on, any access
	// to restored memory materializes its shards on demand.
	space.BeginLazy(restorer.MaterializeRange)
	restorer.Seal()

	drainCtx, cancel := context.WithCancel(ctx)
	h := &lazyHandle{cancel: cancel, done: make(chan struct{}), closers: closers}
	s.mu.Lock()
	s.space, s.helper, s.lib = space, helper, lib
	s.generation++
	// The restored process starts a fresh lineage: the old chain's epoch
	// cuts are meaningless against the new address space, so the next
	// incremental checkpoint must be a base.
	s.incr = nil
	s.lazy = h
	s.mu.Unlock()
	s.plugin.ResetIncremental()

	visible := time.Since(start)
	drain := func() {
		bgStart := time.Now()
		err := restorer.Prefetch(drainCtx)
		bg := time.Since(bgStart)
		if err == nil {
			// Fully drained: uninstall the gate (restoring the zero-cost
			// data-plane fast path) and release the image sources — every
			// shard any future fault could need has been decoded.
			space.EndLazy()
			h.closeSources()
		}
		h.st = Stats{
			RestoreVisibleDuration:    visible,
			RestoreBackgroundDuration: bg,
			RestoreDuration:           visible + bg,
		}
		h.err = wrapCancelled(err)
		close(h.done)
	}
	if !wait {
		go drain()
		return &Restarting{h: h}, nil
	}
	// A waited drain runs on the caller's goroutine with qmu still held,
	// so no other restart can come between it and the teardown below.
	drain()
	if h.err != nil {
		s.mu.Lock()
		mine := s.lazy == h // else a racing Close already tore it down
		if mine {
			s.lib, s.helper, s.lazy = nil, nil, nil
		}
		s.mu.Unlock()
		if mine {
			h.closeSources()
			lib.Destroy()
			helper.Unload()
		}
		return nil, h.err
	}
	return &Restarting{h: h}, nil
}

// RestartAsync restarts the session from the named image and returns
// as soon as it can execute: the visible phase reads the image's
// headers, verifies it, rebuilds the lower half from the active set,
// and maps every restored byte — upper-half regions and active-malloc
// memory alike — as cold. The application may then run (and launch
// kernels) immediately: the first access to any cold range faults its
// image shards in, while a background prefetcher drains the rest of the
// image concurrently — device memory first, managed (UVM) memory last.
// Delta chains restore shard-by-shard from the nearest ancestor that
// owns each shard, through the same Store.
//
// ctx governs both the visible phase and the background drain: it must
// stay live until the returned handle reports completion, or the drain
// is cancelled (which only stops prefetching — cold memory still
// materializes on demand and the session stays fully usable).
//
// An image that fails to open or verify is rejected before anything is
// torn down; a failure after the old lower half is gone leaves the
// session closed.
func (s *Session) RestartAsync(ctx context.Context, store Store, name string) (*Restarting, error) {
	return s.restart(ctx, store, name, false)
}

// RestartFrom restarts from the named image in a Store: RestartAsync,
// waited on. A delta image's parent chain is followed through the same
// Store. It returns once the whole image is materialized. An image that
// fails to open or verify is rejected with the session untouched; like
// any restart that fails after the old lower half is torn down, a
// failed drain — a store error, a cancelled ctx — leaves the session
// closed.
func (s *Session) RestartFrom(ctx context.Context, store Store, name string) error {
	_, err := s.restart(ctx, store, name, true)
	return err
}
