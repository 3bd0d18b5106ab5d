package crac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/dmtcp"
)

// CompactStats reports one Compact call.
type CompactStats struct {
	// Tip is the compacted chain's tip (now a self-contained base).
	Tip string
	// Depth is the chain depth that was squashed away (0 means the tip
	// was already a base and nothing happened).
	Depth int
	// Squashed lists the ancestors folded into the new base, tip-most
	// first; Deleted the subset actually removed, Retained the subset
	// kept because another lineage (or an unreadable entry, resolved
	// conservatively) still reaches them.
	Squashed []string
	Deleted  []string
	Retained []string
	// ChunksSwept counts unreferenced chunks GC'd when store is a
	// CASStore (0 otherwise).
	ChunksSwept int
}

// Compact squashes the delta chain under tip into a single
// self-contained base image, from stored bytes alone — the session
// that wrote the chain keeps running, keeps checkpointing, and is
// never paused or quiesced. The new base is written under the tip's
// own name with the tip's identity preserved, so a delta the live
// session records against the old tip (its parentID) still verifies
// and applies against the compacted base; deltas the session writes
// while Compact runs land on top untouched.
//
// Ancestors the squash strands are then deleted unless another live
// image still reaches them in the store's lineage graph; a header that
// cannot be read retains them all — Compact never trades safety for
// space. When store is a *CASStore, a chunk GC pass runs afterwards
// to sweep payload chunks only the condemned images referenced.
//
// The chain is verified (VerifyChain) before squashing; a corrupt
// member aborts with its error and the store unchanged. Run Compact
// from one maintenance owner per store — e.g. the Supervisor's
// CompactAfter hook — not concurrently with itself.
func Compact(ctx context.Context, store Store, tip string) (*CompactStats, error) {
	if err := validateImageName(tip); err != nil {
		return nil, err
	}
	st := &CompactStats{Tip: tip}

	head, err := readNode(ctx, store, tip)
	switch {
	case err != nil:
		return nil, err
	case head.parent == "":
		return st, nil // already a base
	case head.id == 0:
		return nil, fmt.Errorf("%w: tip %q carries no identity; compacting it would orphan its children", ErrDeltaChain, tip)
	}

	// Verify the whole chain first: a squash must only ever replace a
	// chain it could faithfully resolve.
	chain, err := VerifyChain(ctx, store, tip)
	if err != nil {
		return nil, err
	}
	st.Depth = len(chain) - 1
	st.Squashed = append(st.Squashed, chain[1:]...)

	// Materialize base + deltas and re-emit as a base under the tip's
	// identity. Mirror the chain's own encoding so later deltas keep
	// addressing the same shard grid.
	im, err := OpenImageFrom(ctx, store, tip)
	if err != nil {
		return nil, err
	}
	eng := &dmtcp.Engine{Gzip: im.img.Gzip}
	if d := im.img.Delta; d != nil {
		eng.ShardSize = d.ShardSize()
	}
	if err := store.Put(ctx, tip, func(w io.Writer) error {
		return eng.EncodeBase(ctx, w, im.img, head.id)
	}); err != nil {
		return nil, fmt.Errorf("crac: compact %q: writing base: %w", tip, err)
	}

	// Condemnation: the squashed ancestors are garbage unless some
	// other live image's lineage still runs through them. The new base
	// is already committed, so walks through tip stop there and never
	// keep the old chain alive.
	names, err := store.List(ctx)
	var keep map[string]bool
	if err == nil {
		var live []string
		for _, n := range names {
			if !slices.Contains(st.Squashed, n) {
				live = append(live, n)
			}
		}
		keep, err = storeLineage(ctx, store).closure(live)
	}
	if err != nil {
		// Best-effort: space is reclaimable later, and an unreadable
		// lineage might reach anything.
		st.Retained = append(st.Retained, st.Squashed...)
		return st, nil
	}
	for _, n := range st.Squashed {
		if keep[n] {
			st.Retained = append(st.Retained, n)
			continue
		}
		if derr := store.Delete(ctx, n); derr != nil && !errors.Is(derr, ErrImageNotFound) {
			st.Retained = append(st.Retained, n)
			continue
		}
		st.Deleted = append(st.Deleted, n)
	}

	if cs := asCASStore(store); cs != nil {
		gcst, gerr := cs.GC(ctx)
		if gerr != nil {
			return st, nil // chunks stay; the next GC sweeps them
		}
		st.ChunksSwept = gcst.Swept
	}
	return st, nil
}

// asCASStore unwraps decorators (WithRetry) down to a *CASStore, or
// nil when there is none.
func asCASStore(store Store) *CASStore {
	for store != nil {
		if cs, ok := store.(*CASStore); ok {
			return cs
		}
		u, ok := store.(interface{ Unwrap() Store })
		if !ok {
			return nil
		}
		store = u.Unwrap()
	}
	return nil
}
