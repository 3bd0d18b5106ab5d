package crac

import (
	"context"
	"fmt"
	"io"
	"slices"

	"repro/internal/cracplugin"
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
	// kept because another live image reaches them, or might (a live
	// header that cannot be read). Their chunks stay until CASStore.GC.
	Squashed []string
	Deleted  []string
	Retained []string
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
// The chain is resolved with the walk a waited restart takes, so every
// member is checked (trailer, parent identity and shard grid, cycles,
// depth) before the new base is written, and every shard it takes is
// checked against its hash as it streams out; a member that fails
// aborts with its error and the store unchanged. Region bytes stream
// shard by shard; only the sections are held in memory, device memory
// folded once. The squashed ancestors are
// then condemned by DirStore retention's rule: deleted unless a live
// image reaches them, and all kept when a live header cannot be read.
// Through a CASStore that deletes manifests only; CASStore.GC sweeps
// their chunks (the Supervisor's CompactAfter step runs both). Run
// Compact from one maintenance owner per store, not concurrently with
// itself.
func Compact(ctx context.Context, store Store, tip string) (*CompactStats, error) {
	if err := validateImageName(tip); err != nil {
		return nil, err
	}
	st := &CompactStats{Tip: tip}

	// One header graph names the squashed members and, once the new base
	// commits, condemns them.
	g := storeLineage(ctx, store)
	head := g.node(tip)
	switch {
	case head.err != nil:
		return nil, head.err
	case head.parent == "":
		return st, nil // already a base
	case head.id == 0:
		return nil, fmt.Errorf("%w: tip %q carries no identity; compacting it would orphan its children", ErrDeltaChain, tip)
	}
	// Resolve the chain with the walk a waited restart takes, and stream
	// it out as one base under the tip's identity. Mirror the chain's own
	// encoding so later deltas keep addressing the same shard grid.
	chain, closers, err := openIndexChain(ctx, store, tip, chainWaited)
	if err != nil {
		return nil, wrapCancelled(err)
	}
	defer closeAll(closers)
	devmem, err := foldDevMem(chain)
	if err != nil {
		return nil, err
	}
	// The walk learned each member's lineage node: condemnation below
	// needs no second read of their headers.
	var squashed []string
	for i, ix := range chain[1:] {
		squashed = append(squashed, chain[i].Parent)
		g.nodes[chain[i].Parent] = &lineageNode{parent: ix.Parent, id: ix.ID, parentID: ix.ParentID}
	}
	st.Depth, st.Squashed = len(squashed), squashed

	eng := &dmtcp.Engine{ShardSize: chain[0].ShardSize}
	opaque := map[string][]byte{cracplugin.SectionDevMem2: devmem}
	if err := store.Put(ctx, tip, func(w io.Writer) error {
		return eng.EncodeBase(ctx, w, chain[0], head.id, opaque)
	}); err != nil {
		return nil, fmt.Errorf("crac: compact %q: writing base: %w", tip, err)
	}

	// Walks through the committed base stop there. A listing that fails
	// keeps everything; the space is reclaimable later.
	g.nodes[tip] = &lineageNode{id: head.id}
	names, err := store.List(ctx)
	if err != nil {
		st.Retained = squashed
		return st, nil
	}
	live := slices.DeleteFunc(names, func(n string) bool { return slices.Contains(squashed, n) })
	st.Deleted, st.Retained = condemn(g, live, squashed, func(n string) error {
		return store.Delete(ctx, n)
	})
	return st, nil
}
