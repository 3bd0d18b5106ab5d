package crac

// Pauseless chain compaction (ISSUE 9): Compact squashes base + k
// deltas into a new base from stored bytes alone — while the session
// that wrote them keeps checkpointing — and condemned ancestors plus
// unreferenced chunks are reclaimed without ever touching a chunk a
// live manifest references.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/cas"
)

// chainDigest restores the named chain (materializing deltas) and
// digests the image layout plus every restored region payload — the
// "restored bytes" identity the compaction contract is stated in.
func chainDigest(t *testing.T, store Store, tip string) [32]byte {
	t.Helper()
	ctx := context.Background()
	img, err := OpenImageFrom(ctx, store, tip)
	if err != nil {
		t.Fatalf("resolving %q: %v", tip, err)
	}
	h := sha256.New()
	info := img.Info()
	for _, r := range info.Regions {
		fmt.Fprintf(h, "region %x %x %s %s\n", r.Start, r.Len, r.Prot, r.Label)
	}
	for _, s := range info.Sections {
		data, _ := img.Section(s.Name)
		fmt.Fprintf(h, "section %s %d\n", s.Name, len(data))
		h.Write(data)
	}
	sess, err := RestoreFrom(ctx, store, tip)
	if err != nil {
		t.Fatalf("restoring %q: %v", tip, err)
	}
	defer sess.Close()
	regions := snapshotRegions(t, sess)
	starts := make([]uint64, 0, len(regions))
	for start := range regions {
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, start := range starts {
		fmt.Fprintf(h, "payload %x %d\n", start, len(regions[start]))
		h.Write(regions[start])
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func TestCompactSquashesChainByteIdentically(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(t *testing.T) Store
	}{
		{"MemStore", func(t *testing.T) Store { return NewMemStore() }},
		{"CASStore", func(t *testing.T) Store { return NewCASStore(NewMemStore()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			store := tc.store(t)
			s, err := New(WithShardSize(64<<10), WithIncremental(16))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			w := newIncrWorkload(t, s.Runtime())
			tip := "gen0"
			if _, err := s.CheckpointTo(ctx, store, tip); err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= 4; round++ {
				w.step(t, round)
				tip = fmt.Sprintf("gen%d", round)
				if _, err := s.CheckpointTo(ctx, store, tip); err != nil {
					t.Fatal(err)
				}
			}
			before := chainDigest(t, store, tip)

			st, err := Compact(ctx, store, tip)
			if err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if st.Depth != 4 || len(st.Squashed) != 4 {
				t.Fatalf("Compact stats = %+v, want depth 4", st)
			}
			if len(st.Deleted) != 4 {
				t.Fatalf("Compact deleted %v, want all 4 stranded ancestors", st.Deleted)
			}

			// The tip is now a base…
			timg, err := OpenImageFrom(ctx, store, tip)
			if err != nil {
				t.Fatal(err)
			}
			if info := timg.Info(); info.Delta || info.Parent != "" || info.DeltaDepth != 0 {
				t.Fatalf("compacted tip is not a base: %+v", info)
			}
			// …and restores the exact bytes the chain did.
			if after := chainDigest(t, store, tip); after != before {
				t.Fatal("restored bytes differ after compaction")
			}

			// The live session's next delta still applies: its recorded
			// parentID must match the identity Compact preserved.
			w.step(t, 9)
			if st, err := s.CheckpointTo(ctx, store, "gen5"); err != nil || !st.Delta {
				t.Fatalf("post-compaction delta: %v", err)
			}
			if _, err := VerifyChain(ctx, store, "gen5"); err != nil {
				t.Fatalf("VerifyChain over the compacted base: %v", err)
			}
			restored, err := RestoreFrom(ctx, store, "gen5")
			if err != nil {
				t.Fatalf("restoring a delta recorded over the compacted base: %v", err)
			}
			restored.Close()
		})
	}
}

func TestCompactBaseIsNoOp(t *testing.T) {
	ctx := context.Background()
	store := NewMemStore()
	s, err := New(WithShardSize(64<<10), WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	newIncrWorkload(t, s.Runtime())
	if _, err := s.CheckpointTo(ctx, store, "base"); err != nil {
		t.Fatal(err)
	}
	before := conformGet(t, store, "base")
	st, err := Compact(ctx, store, "base")
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth != 0 || len(st.Squashed) != 0 {
		t.Fatalf("Compact on a base = %+v, want no-op", st)
	}
	if after := conformGet(t, store, "base"); !bytes.Equal(before, after) {
		t.Fatal("no-op compaction rewrote the base")
	}
}

// storeSnapshot returns every stored name's bytes.
func storeSnapshot(t *testing.T, store Store) map[string][]byte {
	t.Helper()
	names, err := store.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, n := range names {
		out[n] = conformGet(t, store, n)
	}
	return out
}

// TestCompactRefusesBrokenChain pins Compact's refusal contract on a
// depth-3 chain: a flipped bit in any member, a parent rebound to other
// content, or a missing parent fails the call with a classified error,
// and every stored name is byte-identical afterwards.
func TestCompactRefusesBrokenChain(t *testing.T) {
	ctx := context.Background()
	chain := []string{"g0", "g1", "g2", "g3"}
	type row struct {
		name   string
		damage func(t *testing.T, store Store)
	}
	var rows []row
	// Offsets into the magic, the flags, a delta's parent name and
	// identities, the payload, and the trailer.
	for _, m := range chain {
		for _, at := range []string{"0", "9", "14", "24", "n/4", "n/2", "3n/4", "n-1"} {
			rows = append(rows, row{"flip-" + m + "@" + at, func(t *testing.T, store Store) {
				b := conformGet(t, store, m)
				n := len(b)
				off := map[string]int{"0": 0, "9": 9, "14": 14, "24": 24, "n/4": n / 4, "n/2": n / 2, "3n/4": 3 * n / 4, "n-1": n - 1}[at]
				b[off] ^= 0x40
				conformPut(t, store, m, b)
			}})
		}
	}
	rows = append(rows,
		row{"rebound-parent", func(t *testing.T, store Store) {
			other, d := newChainSession(t)
			if err := other.Runtime().Memset(d, 0x5a, 8192); err != nil {
				t.Fatal(err)
			}
			if _, err := other.CheckpointTo(ctx, store, "g1"); err != nil {
				t.Fatal(err)
			}
		}},
		row{"missing-parent", func(t *testing.T, store Store) {
			if err := store.Delete(ctx, "g1"); err != nil {
				t.Fatal(err)
			}
		}},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			store := NewMemStore()
			s, d := newChainSession(t)
			buildChain(t, s, d, store, chain...)
			r.damage(t, store)
			before := storeSnapshot(t, store)
			_, err := Compact(ctx, store, "g3")
			if !errors.Is(err, ErrCorruptImage) && !errors.Is(err, ErrBadImage) && !errors.Is(err, ErrDeltaChain) {
				t.Fatalf("Compact = %v, want ErrCorruptImage, ErrBadImage or ErrDeltaChain", err)
			}
			if after := storeSnapshot(t, store); !reflect.DeepEqual(after, before) {
				t.Fatal("a refused Compact changed the store")
			}
		})
	}
}

// TestCompactRetainsSharedAncestors pins the lineage rule: a condemned
// ancestor another live lineage still reaches must survive compaction.
// The fork is a second delta recording the same parent — byte-for-byte
// the sibling of the compacted tip, stored under its own name.
func TestCompactRetainsSharedAncestors(t *testing.T) {
	ctx := context.Background()
	store := NewMemStore()
	s, err := New(WithShardSize(64<<10), WithIncremental(16))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	if _, err := s.CheckpointTo(ctx, store, "base"); err != nil {
		t.Fatal(err)
	}
	w.step(t, 1)
	if st, err := s.CheckpointTo(ctx, store, "fork-a"); err != nil || !st.Delta {
		t.Fatalf("fork-a: %v", err)
	}
	// fork-b: a sibling delta over the same base.
	conformPut(t, store, "fork-b", conformGet(t, store, "fork-a"))
	digestB := chainDigest(t, store, "fork-b")

	st, err := Compact(ctx, store, "fork-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Squashed) != 1 || st.Squashed[0] != "base" {
		t.Fatalf("Compact squashed %v, want [base]", st.Squashed)
	}
	// base is condemned but fork-b still needs it: it must NOT be
	// deleted.
	for _, d := range st.Deleted {
		if d == "base" {
			t.Fatalf("Compact deleted %q, still the parent of live lineage fork-b", d)
		}
	}
	if _, err := store.Get(ctx, "base"); err != nil {
		t.Fatalf("shared ancestor gone after compaction: %v", err)
	}
	if _, err := VerifyChain(ctx, store, "fork-b"); err != nil {
		t.Fatalf("VerifyChain(fork-b) after compacting its sibling: %v", err)
	}
	if d := chainDigest(t, store, "fork-b"); d != digestB {
		t.Fatal("fork-b restores differently after its sibling was compacted")
	}
}

// TestCompactTortureConcurrentWriter is the -race torture for the
// pauseless contract: one session checkpoints continuously (no
// Quiesce, no pause) while the main loop repeatedly compacts the chain
// tip of a CASStore. Invariants, checked every round:
//
//   - the bytes restored from a compacted tip are identical to the
//     bytes the original chain resolved to;
//   - deltas the writer records over a compacted base keep verifying
//     and restoring;
//   - no chunk referenced by any live manifest is ever GC'd (every
//     listed image re-reads fully after each compaction + GC pass).
func TestCompactTortureConcurrentWriter(t *testing.T) {
	seed := tortureSeed(t)
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	cstore := NewCASStore(NewMemStore())

	s, err := New(WithShardSize(64<<10), WithIncremental(64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	if _, err := s.CheckpointTo(ctx, cstore, "gen000"); err != nil {
		t.Fatal(err)
	}

	const (
		writerGens = 15
		compactors = 6
	)
	var (
		mu      sync.Mutex // serializes CheckpointTo calls vs tip reads
		tipName = "gen000"
		gen     = 0
	)
	checkpoint := func() bool {
		mu.Lock()
		defer mu.Unlock()
		gen++
		w.step(t, gen)
		name := fmt.Sprintf("gen%03d", gen)
		if _, err := s.CheckpointTo(ctx, cstore, name); err != nil {
			t.Errorf("checkpoint %s: %v", name, err)
			return false
		}
		tipName = name
		return true
	}
	currentTip := func() string {
		mu.Lock()
		defer mu.Unlock()
		return tipName
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < writerGens; i++ {
			if !checkpoint() {
				return
			}
		}
	}()

	for i := 0; i < compactors; i++ {
		tip := currentTip()
		before := chainDigest(t, cstore, tip)
		if _, err := Compact(ctx, cstore, tip); err != nil {
			t.Fatalf("Compact(%s) under concurrent writer: %v", tip, err)
		}
		if _, err := cstore.GC(ctx); err != nil {
			t.Fatalf("GC after compacting %s under concurrent writer: %v", tip, err)
		}
		if after := chainDigest(t, cstore, tip); after != before {
			t.Fatalf("restored bytes of %s changed across compaction", tip)
		}
		// GC safety: every chunk any live manifest references must
		// still be present — reconstructing every image proves it.
		names, err := cstore.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			rc, err := cstore.Get(ctx, n)
			if err != nil {
				t.Fatalf("image %q unreadable after compaction %d: %v", n, i, err)
			}
			if _, err := io.Copy(io.Discard, rc); err != nil {
				t.Fatalf("image %q torn after compaction %d: %v", n, i, err)
			}
			rc.Close()
		}
		// Jitter the interleaving a little per seed.
		if rng.Intn(2) == 0 {
			checkpoint()
		}
	}
	<-writerDone
	if t.Failed() {
		return
	}

	// Final sweep: the surviving tip chain verifies and restores, and
	// every manifest's chunk references resolve in the backing.
	tip := currentTip()
	if _, err := VerifyChain(ctx, cstore, tip); err != nil {
		t.Fatalf("final VerifyChain(%s): %v", tip, err)
	}
	sess, err := RestoreFrom(ctx, cstore, tip)
	if err != nil {
		t.Fatalf("final restore: %v", err)
	}
	sess.Close()
	rep, err := DedupReport(ctx, cstore)
	if err != nil {
		t.Fatal(err)
	}
	names, err := cstore.Backing().List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	chunksInStore := 0
	for _, n := range names {
		if cas.IsChunkName(n) {
			chunksInStore++
		}
	}
	if rep.Chunks > chunksInStore {
		t.Fatalf("manifests reference %d unique chunks but the store holds %d", rep.Chunks, chunksInStore)
	}
}
