package crac

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/cas"
	"repro/internal/dmtcp"
)

// TestLineageGraphQueries answers every lineage query over hand-built
// nodes: a fork, a cycle, a missing parent, an identity mismatch, a
// chain one link over dmtcp.MaxChainDepth, an unreadable header, bytes
// that are no image and a quarantined name.
func TestLineageGraphQueries(t *testing.T) {
	errUnreadable := errors.New("unreadable header")
	stored := map[string]*lineageNode{
		// A fork: two deltas share one base.
		"base": {id: 1},
		"a1":   {parent: "base", id: 2, parentID: 1},
		"b1":   {parent: "base", id: 3, parentID: 1},
		// A cycle.
		"c1": {parent: "c2", id: 4, parentID: 5},
		"c2": {parent: "c1", id: 5, parentID: 4},
		// A parent that is not stored.
		"m1": {parent: "gone"},
		// x1 recorded a different x0 than the one stored; x2 is intact
		// over x1 but its lineage runs through the mismatch.
		"x0": {id: 10},
		"x1": {parent: "x0", id: 11, parentID: 99},
		"x2": {parent: "x1", id: 12, parentID: 11},
		// An unreadable header.
		"u0": {err: errUnreadable},
		"u1": {parent: "u0"},
		// Bytes that are no image header, and a delta naming them.
		"j0": {err: fmt.Errorf("%w: bad magic", ErrBadImage)},
		"j1": {parent: "j0"},
		// Scrub moved r1 aside: it is no image any more, so r0 is a tip.
		"r0":             {id: 30},
		"r1~quarantined": {parent: "r0", id: 31, parentID: 30},
	}
	deep := func(i int) string { return fmt.Sprintf("deep%03d", i) }
	for i := 0; i <= dmtcp.MaxChainDepth+1; i++ {
		n := &lineageNode{id: uint64(1000 + i)}
		if i > 0 {
			n.parent, n.parentID = deep(i-1), uint64(1000+i-1)
		}
		stored[deep(i)] = n
	}
	// The graph reads nodes from the store on first use; tips are asked
	// of a graph built whole from a listing, which hides quarantined
	// names as DirStore.List does.
	g := &lineageGraph{nodes: map[string]*lineageNode{}, read: func(name string) (*lineageNode, error) {
		n, ok := stored[name]
		if !ok {
			return nil, ErrImageNotFound
		}
		if n.err != nil {
			return nil, n.err
		}
		return n, nil
	}}
	listed := &lineageGraph{nodes: map[string]*lineageNode{}}
	for name, n := range stored {
		if !Quarantined(name) {
			listed.nodes[name] = n
		}
	}

	deepAncestors := func(from int) []string {
		var out []string
		for i := from - 1; i >= 0 && len(out) < dmtcp.MaxChainDepth; i-- {
			out = append(out, deep(i))
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		want    []string
		wantErr error // nil: the lineage resolves intact
	}{
		{"base", nil, nil},
		{"a1", []string{"base"}, nil},
		{"b1", []string{"base"}, nil},
		{"c1", []string{"c2"}, ErrDeltaChain},
		{"m1", []string{"gone"}, ErrImageNotFound},
		{"x1", []string{"x0"}, ErrDeltaChain},
		{"x2", []string{"x1", "x0"}, ErrDeltaChain},
		{"u0", nil, errUnreadable},
		{"u1", []string{"u0"}, errUnreadable},
		{"j1", []string{"j0"}, ErrBadImage},
		{"r1~quarantined", nil, ErrImageNotFound},
		{"gone", nil, ErrImageNotFound},
		{deep(dmtcp.MaxChainDepth), deepAncestors(dmtcp.MaxChainDepth), nil},
		{deep(dmtcp.MaxChainDepth + 1), deepAncestors(dmtcp.MaxChainDepth + 1), ErrDeltaChain},
	} {
		got, err := g.ancestors(tc.name)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ancestors(%s) = %v, want %v", tc.name, got, tc.want)
		}
		if (err == nil) != (tc.wantErr == nil) || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
			t.Errorf("ancestors(%s) error = %v, want %v", tc.name, err, tc.wantErr)
		}
	}

	for _, tc := range []struct {
		seeds   []string
		want    []string
		wantErr error
	}{
		{[]string{"a1", "b1"}, []string{"a1", "b1", "base"}, nil},
		{[]string{"x2"}, []string{"x0", "x1", "x2"}, nil},
		{[]string{"m1"}, []string{"m1", "gone"}, nil},
		{[]string{"c1"}, []string{"c1", "c2"}, nil},
		{[]string{"a1", "u1"}, []string{"a1", "base", "u0", "u1"}, errUnreadable},
		// No image reaches nothing and keeps the closure readable.
		{[]string{"a1", "j0"}, []string{"a1", "base", "j0"}, nil},
		{[]string{"j1"}, []string{"j1", "j0"}, nil},
	} {
		got, err := g.closure(tc.seeds)
		want := map[string]bool{}
		for _, n := range tc.want {
			want[n] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("closure(%v) = %v, want %v", tc.seeds, got, want)
		}
		if !errors.Is(err, tc.wantErr) {
			t.Errorf("closure(%v) error = %v, want %v", tc.seeds, err, tc.wantErr)
		}
	}

	want := []string{"a1", "b1", deep(dmtcp.MaxChainDepth + 1), "j1", "m1", "r0", "u1", "x2"}
	if got := listed.tips(); !reflect.DeepEqual(got, want) {
		t.Errorf("tips = %v, want %v", got, want)
	}
}

// storedEntries returns one stored entry of every kind the lineage
// header reader meets: standalone images (raw, and with the retired
// gzip flag bit), a chain base and delta, and the raw manifest of a
// delta written through a CASStore.
func storedEntries(tb testing.TB) map[string][]byte {
	tb.Helper()
	ctx := context.Background()
	out := map[string][]byte{}
	get := func(store Store, name string) []byte {
		rc, err := store.Get(ctx, name)
		if err != nil {
			tb.Fatal(err)
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	checkpoint := func(s *Session, store Store, name string) {
		if _, err := s.CheckpointTo(ctx, store, name); err != nil {
			tb.Fatal(err)
		}
	}
	solo, err := New()
	if err != nil {
		tb.Fatal(err)
	}
	mem := NewMemStore()
	checkpoint(solo, mem, "img")
	solo.Close()
	out["standalone"] = get(mem, "img")
	out["standalone-gzip"] = gzipFlagged(out["standalone"])
	s, err := New(WithShardSize(64<<10), WithIncremental(8))
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	d, err := s.Runtime().Malloc(128 << 10)
	if err != nil {
		tb.Fatal(err)
	}
	mem, backing := NewMemStore(), NewMemStore()
	for i, name := range []string{"base", "delta"} {
		if err := s.Runtime().Memset(d, byte(i+1), 4096); err != nil {
			tb.Fatal(err)
		}
		checkpoint(s, mem, name)
	}
	out["base"], out["delta"] = get(mem, "base"), get(mem, "delta")
	cs := NewCASStore(backing)
	for _, name := range []string{"m0", "m1"} {
		checkpoint(s, cs, name)
	}
	out["manifest"] = get(backing, "m1")
	return out
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestLineageHeaderReadsPrologueOnly pins the header reader's contract:
// from each kind of stored entry it reads exactly the prologue, and the
// identities it reports are the ones a full read finds.
func TestLineageHeaderReadsPrologueOnly(t *testing.T) {
	entries := storedEntries(t)
	base, err := dmtcp.ReadImage(bytes.NewReader(entries["base"]))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		entry    string
		want     lineageNode
		prologue int
	}{
		{"standalone", lineageNode{}, 8 + 4 + 2 + 20},
		{"standalone-gzip", lineageNode{}, 8 + 4},
		{"base", lineageNode{id: base.ID}, 8 + 4 + 2 + 20},
		{"delta", lineageNode{parent: "base", parentID: base.ID}, 8 + 4 + 2 + len("base") + 20},
		{"manifest", lineageNode{parent: "m0"}, 8 + 2 + 2 + len("m0") + 4 + 8},
	} {
		cr := &countingReader{r: bytes.NewReader(entries[tc.entry])}
		n, err := parseHeader(cr)
		if tc.entry == "standalone-gzip" {
			// The retired gzip bit: refused right after the flags.
			if !errors.Is(err, ErrUnsupportedVersion) || cr.n != tc.prologue {
				t.Errorf("%s: %v after %d bytes, want ErrUnsupportedVersion after %d", tc.entry, err, cr.n, tc.prologue)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.entry, err)
		}
		if tc.entry == "delta" {
			tc.want.id = n.id // content-derived; only its presence is pinned
			if n.id == 0 {
				t.Errorf("delta: no identity read")
			}
		}
		if *n != tc.want {
			t.Errorf("%s: node %+v, want %+v", tc.entry, *n, tc.want)
		}
		if cr.n != tc.prologue {
			t.Errorf("%s: read %d bytes, want the %d-byte prologue", tc.entry, cr.n, tc.prologue)
		}
	}
}

// FuzzLineageHeader feeds the one lineage header reader arbitrary
// bytes, streamed and by offset. Both ways must agree; a failure must
// be classified; an accepted prologue must parse the same from the
// bytes read alone. Seeds: standalone (raw and gzip-flagged), chain base and
// delta prologues and a manifest's.
func FuzzLineageHeader(f *testing.F) {
	for _, b := range storedEntries(f) {
		f.Add(b[:min(len(b), 256)])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &countingReader{r: bytes.NewReader(data)}
		streamed, err := parseHeader(cr)
		ranged, rerr := parseHeader(io.NewSectionReader(memImage(data), 0, int64(len(data))))
		if (err == nil) != (rerr == nil) || (err == nil && *streamed != *ranged) {
			t.Fatalf("streamed %+v (%v), by offset %+v (%v)", streamed, err, ranged, rerr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadImage) && !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("unclassified header error: %v", err)
			}
			return
		}
		short, err := parseHeader(bytes.NewReader(data[:cr.n]))
		if err != nil || *short != *streamed {
			t.Fatalf("prologue of %d bytes parses as %+v (%v), whole input as %+v", cr.n, short, err, streamed)
		}
	})
}

// manifestChunkBytes sums the chunk bytes the named manifests
// reference, read from the backing without counting.
func manifestChunkBytes(t *testing.T, backing *countingStore, names ...string) int64 {
	t.Helper()
	var n int64
	for _, name := range names {
		man, err := cas.DecodeManifest(bytes.NewReader(conformGet(t, backing.MemStore, name)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range man.Segments {
			if seg := &man.Segments[i]; seg.IsChunk() {
				n += int64(seg.Length)
			}
		}
	}
	return n
}

// TestCompactLearnsLineageFromHeaders counts what Compact fetches from
// a CASStore holding a depth-15 chain and a second full chain beside
// it. Materializing the tip reads every member once, checking each as
// it goes; learning which stored images reach which must read
// manifests only, so the chunk bytes fetched stay within the chain's,
// plus the tip's once.
func TestCompactLearnsLineageFromHeaders(t *testing.T) {
	ctx := context.Background()
	backing := newCountingStore()
	store := NewCASStore(backing)
	const depth = 15
	var chain []string
	for c := 0; c < 2; c++ {
		s, err := New(WithWorkers(0), WithShardSize(64<<10), WithIncremental(depth+1))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		d, err := s.Runtime().Malloc(256 << 10)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for i := 0; i <= depth; i++ {
			names = append(names, fmt.Sprintf("c%d-gen%02d", c, i))
		}
		buildChain(t, s, d, store, names...)
		chain = names
	}
	tip := chain[depth]
	chainBytes := manifestChunkBytes(t, backing, chain...)
	tipBytes := manifestChunkBytes(t, backing, tip)

	backing.reset()
	st, err := Compact(ctx, store, tip)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Deleted) != depth {
		t.Fatalf("Compact deleted %v, want the %d squashed ancestors", st.Deleted, depth)
	}
	fetched, _ := backing.total(true)
	t.Logf("chain references %d chunk bytes (tip %d); Compact fetched %d (%.2fx)",
		chainBytes, tipBytes, fetched, float64(fetched)/float64(chainBytes))
	if fetched > chainBytes+tipBytes {
		t.Fatalf("Compact fetched %d chunk bytes, want at most the chain's %d plus the tip's %d",
			fetched, chainBytes, tipBytes)
	}
}

// TestRepairChainLearnsParentsFromHeaders: with no live session,
// RepairChain falls back down a corrupt tip's lineage over a CASStore
// and fetches no chunk beyond what verifying each candidate reads —
// less, as candidates share the members they have in common.
func TestRepairChainLearnsParentsFromHeaders(t *testing.T) {
	ctx := context.Background()
	backing := newCountingStore()
	store := NewCASStore(backing)
	s, d := newChainSession(t)
	buildChain(t, s, d, store, "g0", "g1", "g2")
	corruptStored(t, store, "g2", 0.5)

	backing.reset()
	for _, name := range []string{"g2", "g1"} {
		VerifyChain(ctx, store, name)
	}
	verifying, _ := backing.total(true)

	backing.reset()
	rep, err := RepairChain(ctx, store, "g2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tip != "g1" || !reflect.DeepEqual(rep.Broken, []string{"g2"}) {
		t.Fatalf("report = %+v, want fallback tip g1 past broken g2", rep)
	}
	if repairing, _ := backing.total(true); repairing > verifying {
		t.Fatalf("RepairChain fetched %d chunk bytes, verifying its candidates %d: parents were learned from chunks",
			repairing, verifying)
	}
}

// TestRepairChainReadsEachMemberOnce: a depth-8 chain whose base is
// corrupt leaves nothing intact, and RepairChain tries every member as
// a fallback tip. Each member is still fetched whole at most once.
func TestRepairChainReadsEachMemberOnce(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	s, d := newChainSession(t)
	var chain []string
	for i := 0; i < 8; i++ {
		chain = append(chain, fmt.Sprintf("g%d", i))
	}
	buildChain(t, s, d, store, chain...)
	corruptStored(t, store, "g0", 0.5)

	store.reset()
	if _, err := RepairChain(ctx, store, "g7", nil); !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("RepairChain = %v, want ErrCorruptImage: nothing intact", err)
	}
	for _, name := range chain {
		if n := store.whole[name]; n > 1 {
			t.Errorf("%s fetched whole %d times, want at most once", name, n)
		}
	}
}
