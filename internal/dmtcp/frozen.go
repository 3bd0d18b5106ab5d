// The checkpoint lifecycle: freeze → emit → write.
//
//   - FreezeCheckpoint runs inside the stop-the-world window: the epoch
//     cut, the plugin Freeze hooks (draining the device), and the
//     copy-on-write arming of the address space — O(metadata), no
//     payload copying;
//   - WriteFrozen runs afterwards, possibly concurrently with the
//     application: plugins emit their sections and the shard pipeline
//     serializes the image, all reading memory through the frozen view.
//
// The view is the only thing that varies. Sessions write from the armed
// Snapshot; Engine.Checkpoint / Engine.CheckpointDelta run the same two
// phases back to back over the live Space and exist only as the
// reference the tests compare against: the image written from a snapshot
// under arbitrary overlapped mutation is byte-identical to the live-view
// image at the same cut (DESIGN.md invariant 10).
package dmtcp

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/addrspace"
)

// EmitFunc contributes one plugin's sections and fill-only spans to a
// checkpoint image. It runs outside the stop-the-world window, possibly
// concurrently with the application, and must read memory only through
// view — never through the live address space.
type EmitFunc func(ctx context.Context, view addrspace.View, sections *SectionMap) error

// Frozen is a checkpoint captured in the stop-the-world window, ready
// to be written while the application keeps executing. The caller must
// Release it exactly once, after WriteFrozen (or instead of it, when
// abandoning the checkpoint) — releasing drops every copy-on-write page
// the snapshot retained.
type Frozen struct {
	view     addrspace.View
	snap     *addrspace.Snapshot // view when armed copy-on-write; nil for the live reference
	cut      uint64
	since    uint64
	prev     *DeltaState
	selfName string
	chain    bool       // a chain base or delta; false: a standalone image
	emits    []EmitFunc // one per engine plugin, in registration order
	cuts     []uint64   // the cut each plugin's Freeze returned
	start    time.Time
}

// FreezeCheckpoint captures a checkpoint of space inside the
// stop-the-world window: for a chain image it takes the epoch cut, then
// it runs the plugin Freeze hooks (draining the device) and arms the
// copy-on-write snapshot. chain selects a chain image — a base when
// prev is nil, else a delta against the chain tip prev describes;
// without it (and prev nil) the image is standalone. selfName is the
// store name the image is being written under, recorded as the parent
// of the next delta ("" for standalone images). On return the
// application may resume: everything the image needs is pinned.
func (e *Engine) FreezeCheckpoint(ctx context.Context, space *addrspace.Space, chain bool, prev *DeltaState, selfName string) (*Frozen, error) {
	return e.freeze(ctx, space, chain, prev, selfName, false)
}

// freeze is the one capture. live hands WriteFrozen the Space itself
// instead of an armed Snapshot — correct only while nothing mutates it.
func (e *Engine) freeze(ctx context.Context, space *addrspace.Space, chain bool, prev *DeltaState, selfName string, live bool) (*Frozen, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	chain = chain || prev != nil
	// A shard-size change breaks the chain's shard grid (hashes would
	// compare different byte ranges), and a chain at the reader's depth
	// cap could never be restored: both rotate to a fresh base.
	if prev != nil && (prev.ShardSize != e.shardSize() || prev.Depth+1 >= MaxChainDepth) {
		prev = nil
	}
	fz := &Frozen{prev: prev, selfName: selfName, chain: chain, start: time.Now()}
	if chain {
		// The cut is taken before the drain hooks, mirroring the plugin's
		// UVM cut: any write that races the drain or the image write — even
		// one the payload happens to capture — is stamped above the cut and
		// re-emitted by the next delta. Taking it later would open a window
		// (between a plugin's memory reads and the cut) whose writes are
		// stamped at the cut value, reported clean next time, and lost.
		fz.cut = space.CutEpoch()
		if prev != nil {
			fz.since = prev.Cut
		}
	}
	for i, p := range e.plugins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var prevCut uint64
		if prev != nil && i < len(prev.PluginCuts) {
			prevCut = prev.PluginCuts[i]
		}
		emit, cut, err := p.Freeze(fz.since, prevCut, chain)
		if err != nil {
			return nil, fmt.Errorf("dmtcp: plugin %s freeze: %w", p.Name(), err)
		}
		fz.emits, fz.cuts = append(fz.emits, emit), append(fz.cuts, cut)
	}
	// Arm the snapshot after the drain hooks, so the image includes the
	// memory effects the drain flushed.
	if live {
		fz.view = space
	} else {
		fz.snap = space.Snapshot()
		fz.view = fz.snap
	}
	return fz, nil
}

// checkpointLive is freeze + WriteFrozen back to back over the live
// space: the stop-the-world reference, whose pause is its whole duration.
func (e *Engine) checkpointLive(ctx context.Context, w io.Writer, space *addrspace.Space, chain bool, prev *DeltaState, selfName string) (Stats, *DeltaState, error) {
	fz, err := e.freeze(ctx, space, chain, prev, selfName, true)
	if err != nil {
		return Stats{}, nil, err
	}
	st, next, err := e.WriteFrozen(ctx, w, fz)
	st.PauseDuration = st.Duration
	return st, next, err
}

// Checkpoint writes a live-view standalone image of space. Nothing may mutate space meanwhile; sessions never
// call it — it is the reference invariant 10 is tested against.
func (e *Engine) Checkpoint(ctx context.Context, w io.Writer, space *addrspace.Space) (Stats, error) {
	st, _, err := e.checkpointLive(ctx, w, space, false, nil, "")
	return st, err
}

// CheckpointDelta is Checkpoint for a chain: a base when prev is
// nil, else a delta against the checkpoint prev describes. The returned
// DeltaState must be committed only if the write durably succeeded.
func (e *Engine) CheckpointDelta(ctx context.Context, w io.Writer, space *addrspace.Space, prev *DeltaState, selfName string) (Stats, *DeltaState, error) {
	return e.checkpointLive(ctx, w, space, true, prev, selfName)
}

// Cut returns the address-space epoch cut the checkpoint was frozen at
// (0 for a standalone image, which takes no cut).
func (fz *Frozen) Cut() uint64 { return fz.cut }

// StartedAt backdates the checkpoint's wall clock to t (ignored unless
// earlier than the freeze entry). Callers that spent time reaching the
// freeze — waiting out gates, draining the device — charge it here so
// Stats.Duration always contains Stats.PauseDuration.
func (fz *Frozen) StartedAt(t time.Time) {
	if t.Before(fz.start) {
		fz.start = t
	}
}

// Release drops every copy-on-write page the frozen checkpoint pinned.
// Idempotent; must be called once the image write finished or was
// abandoned.
func (fz *Frozen) Release() {
	if fz.snap != nil {
		fz.snap.Release()
	}
}

// WriteFrozen serializes a frozen checkpoint to w, reading all memory
// through the view fixed at freeze time, then runs the Resume hooks. It
// may run concurrently with the application. Cancelling ctx aborts the
// operation between emits and between payload shards; the bytes written
// so far are abandoned where they stand (callers that need
// all-or-nothing semantics write through an atomic sink, e.g. a Store).
// The returned DeltaState (chain images only) describes the new image: commit it
// only once the image durably landed. Stats.PauseDuration is left zero —
// the caller measured the pause and owns that split.
func (e *Engine) WriteFrozen(ctx context.Context, w io.Writer, fz *Frozen) (Stats, *DeltaState, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hookStart := time.Now()
	sections := NewSectionMap()
	for i, emit := range fz.emits {
		if err := ctx.Err(); err != nil {
			return Stats{}, nil, err
		}
		if err := emit(ctx, fz.view, sections); err != nil {
			return Stats{}, nil, fmt.Errorf("dmtcp: plugin %s emit: %w", e.plugins[i].Name(), err)
		}
	}
	hookDur := time.Since(hookStart)

	// Only upper-half regions enter the image. This relies on CRAC's own
	// region attribution, not the merged maps view (Section 3.2.2).
	regions := fz.view.RegionsIn(addrspace.HalfUpper)
	st := Stats{Regions: len(regions), Delta: fz.prev != nil}
	if fz.prev != nil {
		st.DeltaDepth = fz.prev.Depth + 1
	}

	writeStart := time.Now()
	// Buffer the image stream: header and frame writes are a few bytes
	// each and must not hit the underlying writer (often a file)
	// directly.
	tw := newTrailerWriter(w)
	bw := bufio.NewWriterSize(tw, 256<<10)
	state, err := e.writeImage(ctx, bw, fz.view, regions, sections, fz, &st)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tw.Finish()
	}
	st.WriteDuration = time.Since(writeStart)
	if err != nil {
		return st, nil, err
	}

	resumeStart := time.Now()
	for i := len(e.plugins) - 1; i >= 0; i-- {
		if err := e.plugins[i].Resume(); err != nil {
			return st, nil, fmt.Errorf("dmtcp: plugin %s resume: %w", e.plugins[i].Name(), err)
		}
	}
	st.HookDuration = hookDur + time.Since(resumeStart)
	st.Duration = time.Since(fz.start)
	return st, state, nil
}
