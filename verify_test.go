package crac

import (
	"context"
	"errors"
	"io"
	"testing"
)

// newChainSession builds a session configured for delta chains plus
// one device buffer to mutate between checkpoints.
func newChainSession(t *testing.T) (*Session, uint64) {
	t.Helper()
	s, err := New(WithWorkers(0), WithShardSize(64<<10), WithIncremental(8))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	rt := s.Runtime()
	d, err := rt.Malloc(256 << 10)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if err := rt.Memset(d, 1, 256<<10); err != nil {
		t.Fatalf("Memset: %v", err)
	}
	return s, d
}

// buildChain checkpoints names[0] as a base and the rest as deltas,
// mutating the buffer before each.
func buildChain(t *testing.T, s *Session, d uint64, store Store, names ...string) {
	t.Helper()
	ctx := context.Background()
	for i, name := range names {
		if err := s.Runtime().Memset(d+uint64(i*4096), byte(i+2), 4096); err != nil {
			t.Fatalf("Memset: %v", err)
		}
		if _, err := s.CheckpointTo(ctx, store, name); err != nil {
			t.Fatalf("CheckpointTo(%s): %v", name, err)
		}
	}
}

// corruptStored flips one bit of the named image in place. frac picks
// the offset as a fraction of the image length.
func corruptStored(t *testing.T, store Store, name string, frac float64) {
	t.Helper()
	ctx := context.Background()
	rc, err := store.Get(ctx, name)
	if err != nil {
		t.Fatalf("Get(%s): %v", name, err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("ReadAll(%s): %v", name, err)
	}
	b[int(frac*float64(len(b)-1))] ^= 0x40
	if err := store.Put(ctx, name, func(w io.Writer) error {
		_, werr := w.Write(b)
		return werr
	}); err != nil {
		t.Fatalf("Put(%s): %v", name, err)
	}
}

func TestVerifyIntactImage(t *testing.T) {
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "g0")
	ctx := context.Background()
	img, err := OpenImageFrom(ctx, store, "g0")
	if err != nil {
		t.Fatalf("OpenImageFrom: %v", err)
	}
	if err := img.Verify(ctx); err != nil {
		t.Fatalf("Verify on intact image: %v", err)
	}
}

func TestVerifyChainWalksToBase(t *testing.T) {
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "g0", "g1", "g2")
	chain, err := VerifyChain(context.Background(), store, "g2")
	if err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	want := []string{"g2", "g1", "g0"}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
}

func TestVerifyChainCorruptMember(t *testing.T) {
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "g0", "g1", "g2")
	corruptStored(t, store, "g1", 0.5)
	_, err := VerifyChain(context.Background(), store, "g2")
	if !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("VerifyChain = %v, want ErrCorruptImage", err)
	}
	if !errors.Is(err, ErrDeltaChain) {
		t.Fatalf("VerifyChain = %v, want the chain context (ErrDeltaChain) too", err)
	}
}

func TestVerifyChainMissingParent(t *testing.T) {
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "g0", "g1")
	if err := store.Delete(context.Background(), "g0"); err != nil {
		t.Fatal(err)
	}
	_, err := VerifyChain(context.Background(), store, "g1")
	if !errors.Is(err, ErrImageNotFound) || !errors.Is(err, ErrDeltaChain) {
		t.Fatalf("VerifyChain = %v, want ErrImageNotFound wrapped in ErrDeltaChain", err)
	}
}

func TestVerifyChainParentIdentityMismatch(t *testing.T) {
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "g0", "g1")
	// Regenerate "g0" as an unrelated base: same name, different
	// content, so a different (content-derived) identity.
	s2, d2 := newChainSession(t)
	if err := s2.Runtime().Memset(d2, 0x77, 8192); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.CheckpointTo(context.Background(), store, "g0"); err != nil {
		t.Fatal(err)
	}
	_, err := VerifyChain(context.Background(), store, "g1")
	if !errors.Is(err, ErrDeltaChain) {
		t.Fatalf("VerifyChain = %v, want ErrDeltaChain identity mismatch", err)
	}
}

func TestScrubQuarantinesCorruptAndCondemned(t *testing.T) {
	store := NewMemStore()
	ctx := context.Background()

	sa, da := newChainSession(t)
	buildChain(t, sa, da, store, "a0", "a1")
	sb, db := newChainSession(t)
	buildChain(t, sb, db, store, "b0", "b1")
	sc, dc := newChainSession(t)
	buildChain(t, sc, dc, store, "c0")

	corruptStored(t, store, "b0", 0.5) // corrupt base condemns its delta b1
	corruptStored(t, store, "c0", 0.5) // standalone corruption

	rep, err := Scrub(ctx, store)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if got, want := rep.Intact, []string{"a0", "a1"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Intact = %v, want %v", got, want)
	}
	corrupt := map[string]bool{}
	for _, iss := range rep.Corrupt {
		corrupt[iss.Name] = true
		if !errors.Is(iss.Err, ErrCorruptImage) {
			t.Errorf("Corrupt[%s] err = %v, want ErrCorruptImage", iss.Name, iss.Err)
		}
	}
	if !corrupt["b0"] || !corrupt["c0"] || len(corrupt) != 2 {
		t.Fatalf("Corrupt = %v, want {b0, c0}", rep.Corrupt)
	}
	if len(rep.Condemned) != 1 || rep.Condemned[0] != "b1" {
		t.Fatalf("Condemned = %v, want [b1]", rep.Condemned)
	}
	if len(rep.Quarantined) != 3 {
		t.Fatalf("Quarantined = %v, want 3 images moved aside", rep.Quarantined)
	}

	names, err := store.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, gone := range []string{"b0", "b1", "c0"} {
		if have[gone] {
			t.Errorf("%s still present after quarantine", gone)
		}
		if !have[gone+"~quarantined"] {
			t.Errorf("%s~quarantined missing: bytes must stay for forensics", gone)
		}
		if !Quarantined(gone + "~quarantined") {
			t.Errorf("Quarantined(%q) = false", gone+"~quarantined")
		}
	}

	// A second pass skips the quarantined names and reports all-clear.
	rep2, err := Scrub(ctx, store)
	if err != nil {
		t.Fatalf("second Scrub: %v", err)
	}
	if len(rep2.Corrupt) != 0 || len(rep2.Condemned) != 0 || len(rep2.Quarantined) != 0 {
		t.Fatalf("second Scrub not clean: %+v", rep2)
	}
}

func TestRepairChainIntact(t *testing.T) {
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "g0", "g1")
	rep, err := RepairChain(context.Background(), store, "g1", nil)
	if err != nil {
		t.Fatalf("RepairChain: %v", err)
	}
	if !rep.Intact || rep.Tip != "g1" {
		t.Fatalf("report = %+v, want Intact tip g1", rep)
	}
}

func TestRepairChainFallsBackToIntactAncestor(t *testing.T) {
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "g0", "g1", "g2")
	corruptStored(t, store, "g2", 0.5)
	rep, err := RepairChain(context.Background(), store, "g2", nil)
	if err != nil {
		t.Fatalf("RepairChain: %v", err)
	}
	if rep.Intact || rep.Tip != "g1" {
		t.Fatalf("report = %+v, want fallback tip g1", rep)
	}
	if len(rep.Broken) != 1 || rep.Broken[0] != "g2" {
		t.Fatalf("Broken = %v, want [g2]", rep.Broken)
	}
	// The fallback tip must actually restore.
	s2, err := RestoreFrom(context.Background(), store, rep.Tip)
	if err != nil {
		t.Fatalf("RestoreFrom(%s): %v", rep.Tip, err)
	}
	s2.Close()
}

func TestRepairChainRebasesFromLiveSession(t *testing.T) {
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "g0", "g1")
	corruptStored(t, store, "g1", 0.5)
	ctx := context.Background()
	rep, err := RepairChain(ctx, store, "g1", s)
	if err != nil {
		t.Fatalf("RepairChain: %v", err)
	}
	if rep.Rebased != "g1-rebase" || rep.Tip != "g1-rebase" {
		t.Fatalf("report = %+v, want rebased tip g1-rebase", rep)
	}
	chain, err := VerifyChain(ctx, store, rep.Tip)
	if err != nil {
		t.Fatalf("VerifyChain(%s): %v", rep.Tip, err)
	}
	if len(chain) != 1 {
		t.Fatalf("rebased image has chain %v, want a self-contained base", chain)
	}
}

func TestRepairChainRebaseNameCollision(t *testing.T) {
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "g0")
	corruptStored(t, store, "g0", 0.5)
	ctx := context.Background()
	// Occupy the default rebase name: the repair must not overwrite it.
	if err := store.Put(ctx, "g0-rebase", func(w io.Writer) error {
		_, err := w.Write([]byte("unrelated"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := RepairChain(ctx, store, "g0", s)
	if err != nil {
		t.Fatalf("RepairChain: %v", err)
	}
	if rep.Rebased != "g0-rebase2" {
		t.Fatalf("Rebased = %q, want g0-rebase2", rep.Rebased)
	}
	rc, err := store.Get(ctx, "g0-rebase")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rc)
	rc.Close()
	if string(b) != "unrelated" {
		t.Fatal("repair overwrote the occupied rebase name")
	}
}

func TestRepairChainNothingIntact(t *testing.T) {
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "g0", "g1")
	corruptStored(t, store, "g0", 0.5)
	corruptStored(t, store, "g1", 0.5)
	_, err := RepairChain(context.Background(), store, "g1", nil)
	if !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("RepairChain = %v, want ErrCorruptImage (no intact ancestor)", err)
	}
}
