package crac

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/addrspace"
	"repro/internal/cracplugin"
	"repro/internal/dmtcp"
	"repro/internal/replaylog"
)

// maxLazyChainDepth bounds how many parent links a lazy restart
// follows, mirroring the eager resolver's cap.
const maxLazyChainDepth = 512

// Restarting is a lazy restart whose visible phase has completed: the
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

// lazyHandle tracks one lazy restart's background state on the
// session, so a later restart or Close can cancel the drain and close
// the image sources.
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

// openIndexChain opens the named image (and, for a delta, its whole
// parent chain) for random access and links the shard indexes.
func openIndexChain(ctx context.Context, store Store, name string) ([]*dmtcp.ShardIndex, []io.Closer, error) {
	var chain []*dmtcp.ShardIndex
	var closers []io.Closer
	fail := func(err error) ([]*dmtcp.ShardIndex, []io.Closer, error) {
		closeAll(closers)
		return nil, nil, err
	}
	seen := make(map[string]bool)
	cur := name
	for {
		if seen[cur] || len(chain) > maxLazyChainDepth {
			return fail(fmt.Errorf("%w: broken lineage at %q", ErrDeltaChain, cur))
		}
		seen[cur] = true
		src, size, err := openImageAt(ctx, store, cur)
		if err != nil {
			if len(chain) > 0 {
				err = fmt.Errorf("%w: opening parent %q: %w", ErrDeltaChain, cur, err)
			}
			return fail(err)
		}
		closers = append(closers, src)
		ix, err := dmtcp.OpenShardIndex(src, size)
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
		cur = ix.Parent
	}
}

// RestartAsync restarts the session lazily from the named image: the
// blocking (visible) phase reads only the image metadata and the
// replay log, rebuilds the lower half, replays the log, and maps every
// restored byte — upper-half regions and active-malloc memory alike —
// as cold. When RestartAsync returns, the application may run (and
// launch kernels) immediately: the first access to any cold range
// faults its image shards in, while a background prefetcher drains the
// rest of the image concurrently — device memory first, managed (UVM)
// memory last. Delta chains restore shard-by-shard from the nearest
// ancestor that owns each shard, through the same Store.
//
// ctx governs both the visible phase and the background drain: it must
// stay live until the returned handle reports completion, or the drain
// is cancelled (which only stops prefetching — cold memory still
// materializes on demand and the session stays fully usable).
//
// Like Restart, a failure during the visible phase (after the old
// lower half is torn down) leaves the session closed.
func (s *Session) RestartAsync(ctx context.Context, store Store, name string) (*Restarting, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	store = s.retryWrap(store)
	start := time.Now()
	chain, closers, err := openIndexChain(ctx, store, name)
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

	// Same guards as the eager restart: no restart under quiesce, none
	// while a checkpoint is in flight, and qmu held for the whole
	// visible phase so a racing Quiesce cannot freeze the old space
	// mid-swap.
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.quiesced > 0 {
		return failOpen(fmt.Errorf("%w: resume before restarting", ErrQuiesced))
	}
	s.mu.Lock()
	if s.migrating {
		s.mu.Unlock()
		return failOpen(fmt.Errorf("%w: cannot restart", ErrMigrationInFlight))
	}
	if s.inflight != nil {
		s.mu.Unlock()
		return failOpen(fmt.Errorf("%w: cannot restart", ErrCheckpointInFlight))
	}
	oldLib, oldHelper, oldLazy := s.lib, s.helper, s.lazy
	s.lib, s.helper, s.lazy = nil, nil, nil
	s.mu.Unlock()
	if oldLib == nil {
		return failOpen(ErrSessionClosed)
	}
	// A previous lazy restart's drain serves the space that is about to
	// be discarded: stop it first.
	if oldLazy != nil {
		oldLazy.detach()
	}

	// The old process dies; a fresh lower half comes up.
	oldLib.Destroy()
	oldHelper.Unload()
	// A lazily-restored space is written through FillCold as shards
	// arrive; demand-zero mmap backing keeps the arena rebuild (and so
	// the visible phase) O(metadata) instead of O(arena bytes).
	space := newSpace(s.cfg)
	space.SetMmapBacked(true)
	helper, lib, entries, err := buildLowerHalf(s.cfg, space)
	if err != nil {
		closeAll(closers)
		return nil, err
	}
	abort := func(err error) (*Restarting, error) {
		lib.Destroy()
		helper.Unload()
		closeAll(closers)
		return nil, wrapCancelled(err)
	}

	// Map every image region at its final protection, content cold —
	// the lazy counterpart of RestoreRegions. Fills go through the
	// privileged FillCold push, so no write-then-protect dance is
	// needed.
	for _, rd := range chain[0].Regions {
		if _, err := space.MMap(rd.Start, rd.Len, rd.Prot, addrspace.MapFixedNoReplace,
			addrspace.HalfUpper, rd.Label); err != nil {
			return abort(fmt.Errorf("crac: mapping region %#x+%d (%s): %w", rd.Start, rd.Len, rd.Label, err))
		}
	}
	restorer, err := dmtcp.NewLazyRestorer(space, chain)
	if err != nil {
		return abort(err)
	}
	restorer.Mergers = sectionMergers
	restorer.Workers, restorer.Budget = s.engine.Workers, s.engine.Budget
	restorer.PlanRegions()

	// Replay the log into the fresh library (recreating every
	// allocation at its original address), then let the plugins lay
	// their fill plans instead of refilling eagerly.
	if err := s.rt.Rebind(lib, entries, log); err != nil {
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
	// A restored process starts a fresh incremental lineage.
	s.incr = nil
	s.lazy = h
	s.mu.Unlock()
	s.plugin.ResetIncremental()

	visible := time.Since(start)
	go func() {
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
	}()
	return &Restarting{h: h}, nil
}
