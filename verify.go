package crac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Verify re-checks an opened image's integrity: every member's trailer
// checksum and every shard's content hash (ShardIndex.Verify), and —
// when the image resolves a CUDA call log — that the log still decodes.
// Failures classify as ErrCorruptImage (recorded checksums or hashes no
// longer match) or ErrBadImage (structural inconsistency).
func (im *Image) Verify(ctx context.Context) error {
	for _, ix := range im.chain {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := ix.Verify(); err != nil {
			return err
		}
	}
	if _, err := im.decodeLog(); err != nil {
		// The section bytes passed their hashes but the log no longer
		// parses: the image cannot be restored, and the damage is to
		// content, not structure.
		return fmt.Errorf("%w: %v", ErrCorruptImage, err)
	}
	return nil
}

// quarantineSuffix marks images Scrub moved aside. Quarantined names
// are invisible to chain resolution (nothing names a parent with the
// suffix) and skipped by later scrubs and the Supervisor's candidate
// scan.
const quarantineSuffix = "~quarantined"

// Quarantined reports whether a store name is a quarantined image
// (moved aside by Scrub).
func Quarantined(name string) bool {
	return strings.HasSuffix(name, quarantineSuffix)
}

// VerifyChain verifies the named image and, for a v3 delta, every
// ancestor down to its base: each member must read back intact
// (trailer checksum, per-shard hashes), each parent link must resolve,
// and each recorded parent identity must match the parent image
// actually found under that name (catching a regenerated parent whose
// name still matches). It returns the chain's names, tip first, ending
// at the base, or an error classifying the first break
// (ErrCorruptImage, ErrBadImage, ErrImageNotFound, ErrDeltaChain).
func VerifyChain(ctx context.Context, store Store, name string) ([]string, error) {
	ancestors, err := verifiedLineage(ctx, store).ancestors(name)
	if err != nil {
		return nil, err
	}
	return append([]string{name}, ancestors...), nil
}

// ScrubIssue is one image Scrub found damaged.
type ScrubIssue struct {
	Name string
	Err  error
}

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	// Intact images passed verification and have intact ancestry.
	Intact []string
	// Corrupt images failed verification themselves.
	Corrupt []ScrubIssue
	// Condemned images are intact deltas whose ancestry is broken — a
	// corrupt, missing, or identity-mismatched ancestor makes them
	// unrestorable, so they count as casualties of their ancestor.
	Condemned []string
	// Quarantined lists the images moved aside (renamed with
	// quarantineSuffix) by this pass — the corrupt and condemned ones,
	// minus any whose quarantine itself failed.
	Quarantined []string
}

// Scrub verifies every image in the store and quarantines the damaged
// ones: each corrupt image — and every delta whose ancestry runs
// through one (lineage-aware: a corrupt base condemns its deltas) — is
// renamed aside with quarantineSuffix so chain resolution, retention,
// and the Supervisor never trip over it, while the bytes stay
// available for forensics. Already-quarantined images are skipped.
// Best-effort like DirStore retention: an image that cannot be moved
// is reported but left in place.
func Scrub(ctx context.Context, store Store) (*ScrubReport, error) {
	names, err := store.List(ctx)
	if err != nil {
		return nil, wrapCancelled(err)
	}
	rep := &ScrubReport{}
	// Each listed image is read once, in full; an intact one whose
	// ancestry does not resolve intact is condemned.
	g := verifiedLineage(ctx, store)
	for _, name := range names {
		switch n := g.node(name); {
		case errors.Is(n.err, ErrImageNotFound): // quarantined, or deleted since the listing
		case errors.Is(n.err, context.Canceled) || errors.Is(n.err, context.DeadlineExceeded):
			return rep, wrapCancelled(n.err)
		case n.err != nil:
			rep.Corrupt = append(rep.Corrupt, ScrubIssue{Name: name, Err: n.err})
		default:
			if _, err := g.ancestors(name); err != nil {
				rep.Condemned = append(rep.Condemned, name)
			} else {
				rep.Intact = append(rep.Intact, name)
			}
		}
	}

	quarantine := func(name string) {
		src, err := store.Get(ctx, name)
		if err != nil {
			return
		}
		err = store.Put(ctx, name+quarantineSuffix, func(w io.Writer) error {
			_, cerr := io.Copy(w, src)
			return cerr
		})
		src.Close()
		if err != nil {
			return
		}
		if store.Delete(ctx, name) == nil {
			rep.Quarantined = append(rep.Quarantined, name)
		}
	}
	for _, issue := range rep.Corrupt {
		quarantine(issue.Name)
	}
	for _, name := range rep.Condemned {
		quarantine(name)
	}
	return rep, nil
}

// RepairReport summarizes one RepairChain call.
type RepairReport struct {
	// Intact: the chain verified end to end; nothing was repaired.
	Intact bool
	// Tip names the newest verified image after the repair: the
	// original tip (Intact), a fresh re-checkpoint (Rebased != ""), or
	// the newest intact ancestor the chain fell back to.
	Tip string
	// Rebased names the re-checkpoint written from the live session,
	// when one was taken.
	Rebased string
	// Broken lists the chain members skipped as corrupt or unreachable.
	Broken []string
}

// RepairChain restores a usable checkpoint lineage after corruption.
// If the chain under tip verifies end to end, it reports Intact. If
// sess is non-nil (a live session whose state supersedes the stored
// chain), the repair re-checkpoints: the session's incremental lineage
// is rebased (Session.Rebase) so the next image is a self-contained
// base, written as tip + "-rebase" (suffixed further if taken) and
// verified — the broken chain stays in place for Scrub to quarantine.
// With no session, the repair falls back down the stored lineage to
// the newest ancestor whose own chain verifies, reporting it as the
// new Tip. When nothing intact remains, it returns an error wrapping
// ErrCorruptImage.
func RepairChain(ctx context.Context, store Store, tip string, sess *Session) (*RepairReport, error) {
	// One verified graph per call: a member the tip and its fallback
	// candidates share is read in full once.
	g := verifiedLineage(ctx, store)
	if _, err := g.ancestors(tip); err == nil {
		return &RepairReport{Intact: true, Tip: tip}, nil
	}
	rep := &RepairReport{}
	if sess != nil {
		sess.Rebase()
		name := tip + "-rebase"
		if existing, err := store.List(ctx); err == nil {
			taken := make(map[string]bool, len(existing))
			for _, n := range existing {
				taken[n] = true
			}
			for i := 2; taken[name]; i++ {
				name = fmt.Sprintf("%s-rebase%d", tip, i)
			}
		}
		if _, err := sess.CheckpointTo(ctx, store, name); err != nil {
			return nil, fmt.Errorf("crac: repair re-checkpoint: %w", err)
		}
		if _, err := VerifyChain(ctx, store, name); err != nil {
			return nil, fmt.Errorf("crac: repair re-checkpoint failed verification: %w", err)
		}
		rep.Rebased, rep.Tip = name, name
		return rep, nil
	}

	// No live session: fall back down the stored lineage, newest first.
	// The lineage graph reads headers only, which usually survive
	// payload corruption; a member whose header is unreadable ends the
	// walk.
	rep.Broken = append(rep.Broken, tip)
	ancestors, _ := storeLineage(ctx, store).ancestors(tip)
	for _, name := range ancestors {
		if _, err := g.ancestors(name); err == nil {
			rep.Tip = name
			return rep, nil
		}
		rep.Broken = append(rep.Broken, name)
	}
	return nil, fmt.Errorf("%w: no intact ancestor of %q", ErrCorruptImage, tip)
}
