package dmtcp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/addrspace"
)

// chainStore is a minimal in-memory name→image map for chain tests.
type chainStore map[string][]byte

// resolve reads the named image and its parents out of cs, each
// verified, and links their indexes tip first: the reader side of a
// chain, as a restart walks it.
func (cs chainStore) resolve(name string) (*ShardIndex, error) {
	var tip, child *ShardIndex
	walk := ChainWalk{name: true}
	for cur := name; ; {
		b, ok := cs[cur]
		if !ok {
			return nil, fmt.Errorf("%w: no image %q", ErrDeltaChain, cur)
		}
		ix, err := ReadImage(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		if child == nil {
			tip = ix
		} else if err := child.SetParent(ix); err != nil {
			return nil, err
		}
		if !ix.Delta {
			return tip, nil
		}
		if err := walk.Step(ix.Parent); err != nil {
			return nil, err
		}
		child, cur = ix, ix.Parent
	}
}

func (cs chainStore) openChain(t *testing.T, name string) *ShardIndex {
	t.Helper()
	tip, err := cs.resolve(name)
	if err != nil {
		t.Fatalf("resolving %s: %v", name, err)
	}
	return tip
}

// regionData reads one region of ix's table whole, chain-resolved.
func regionData(t *testing.T, ix *ShardIndex, rd RegionData) []byte {
	t.Helper()
	b := make([]byte, rd.Len)
	if err := ix.readRegionRange(rd.Start, b, new(shardCache)); err != nil {
		t.Fatalf("region %#x+%d: %v", rd.Start, rd.Len, err)
	}
	return b
}

// sameContent fails unless the chain ending at got reads back exactly
// what the standalone image want holds: region tables and bytes, and
// every section.
func sameContent(t *testing.T, got, want *ShardIndex) {
	t.Helper()
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("region count %d != %d", len(got.Regions), len(want.Regions))
	}
	for i, rd := range want.Regions {
		g := got.Regions[i]
		if g.Start != rd.Start || g.Len != rd.Len || !bytes.Equal(regionData(t, got, g), regionData(t, want, rd)) {
			t.Fatalf("region %d differs after chain resolution", i)
		}
	}
	if len(got.Secs) != len(want.Secs) {
		t.Fatalf("section count %d != %d", len(got.Secs), len(want.Secs))
	}
	for i, sec := range want.Secs {
		gb, gerr := got.SectionBytes(got.Secs[i].Name)
		wb, werr := want.SectionBytes(sec.Name)
		if gerr != nil || werr != nil || got.Secs[i].Name != sec.Name || !bytes.Equal(gb, wb) {
			t.Fatalf("section %q differs after chain resolution (%v, %v)", sec.Name, gerr, werr)
		}
	}
}

// buildDeltaSpace maps a multi-page upper region plus a small one.
func buildDeltaSpace(t *testing.T) (*addrspace.Space, uint64, uint64) {
	t.Helper()
	s := addrspace.New()
	big, err := s.MMap(0, 16*addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfUpper, "big")
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.MMap(0, 2*addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfUpper, "small")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(big, bytes.Repeat([]byte{0xAA}, 16*addrspace.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(small, bytes.Repeat([]byte{0xBB}, 2*addrspace.PageSize)); err != nil {
		t.Fatal(err)
	}
	return s, big, small
}

// ckptDelta runs one CheckpointDelta into a chainStore under name.
func ckptDelta(t *testing.T, e *Engine, cs chainStore, space *addrspace.Space, prev *DeltaState, name string) (Stats, *DeltaState) {
	t.Helper()
	var buf bytes.Buffer
	st, state, err := e.CheckpointDelta(context.Background(), &buf, space, prev, name)
	if err != nil {
		t.Fatalf("CheckpointDelta(%s): %v", name, err)
	}
	cs[name] = buf.Bytes()
	return st, state
}

func regionBytes(t *testing.T, ix *ShardIndex, label string) []byte {
	t.Helper()
	for _, rd := range ix.Regions {
		if rd.Label == label {
			return regionData(t, ix, rd)
		}
	}
	t.Fatalf("image has no region %q", label)
	return nil
}

// TestV3BaseRoundTrip: a chain base carries every shard and reads back
// whole; the gzip=true row sets the retired gzip bit on it, which every
// parser refuses.
func TestV3BaseRoundTrip(t *testing.T) {
	for _, gz := range []bool{false, true} {
		t.Run(fmt.Sprintf("gzip=%v", gz), func(t *testing.T) {
			space, _, _ := buildDeltaSpace(t)
			e := NewEngine()
			e.ShardSize = 3 * addrspace.PageSize // force intra-region sharding
			e.Register(&testPlugin{name: "p"})
			cs := chainStore{}
			st, state := ckptDelta(t, e, cs, space, nil, "base")
			if st.Delta || st.DeltaDepth != 0 {
				t.Fatalf("base reported as delta: %+v", st)
			}
			if st.ShardsWritten != st.ShardsTotal || st.PayloadWritten != st.PayloadTotal {
				t.Fatalf("base must emit everything: %+v", st)
			}
			if state.Name != "base" || state.Depth != 0 {
				t.Fatalf("bad state: %+v", state)
			}
			if gz {
				wantRefused(t, gzipFlagged(cs["base"]))
				return
			}
			img, err := ReadImage(bytes.NewReader(cs["base"]))
			if err != nil {
				t.Fatal(err)
			}
			if img.Delta || img.Unhashed || img.ID == 0 {
				t.Fatalf("base image meta: %+v", img.ImageMeta)
			}
			if got := regionBytes(t, img, "big"); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 16*addrspace.PageSize)) {
				t.Fatal("big region bytes wrong")
			}
			if sec, err := img.SectionBytes("p.data"); err != nil || !bytes.Equal(sec, []byte("payload-p")) {
				t.Fatalf("section missing or wrong: %q (%v)", sec, err)
			}
		})
	}
}

// TestV3DeltaChainMaterializesIdentically: a base and two deltas read
// back, through the chain, exactly what a base at the same point holds.
// The gzip=true row sets the retired gzip bit on the middle delta: the
// chain no longer resolves.
func TestV3DeltaChainMaterializesIdentically(t *testing.T) {
	for _, gz := range []bool{false, true} {
		t.Run(fmt.Sprintf("gzip=%v", gz), func(t *testing.T) {
			space, big, small := buildDeltaSpace(t)
			e := NewEngine()
			e.ShardSize = addrspace.PageSize
			cs := chainStore{}
			_, st0 := ckptDelta(t, e, cs, space, nil, "g0")

			// Dirty one page of big, all of small.
			if err := space.WriteAt(big+5*addrspace.PageSize, bytes.Repeat([]byte{0x11}, addrspace.PageSize)); err != nil {
				t.Fatal(err)
			}
			if err := space.WriteAt(small, bytes.Repeat([]byte{0x22}, 2*addrspace.PageSize)); err != nil {
				t.Fatal(err)
			}
			st1s, st1 := ckptDelta(t, e, cs, space, st0, "g1")
			if !st1s.Delta || st1s.DeltaDepth != 1 {
				t.Fatalf("expected delta depth 1: %+v", st1s)
			}
			if st1s.PayloadWritten != 3*addrspace.PageSize {
				t.Fatalf("delta payload = %d, want 3 pages", st1s.PayloadWritten)
			}

			// Another round: a different page.
			if err := space.WriteAt(big+9*addrspace.PageSize, bytes.Repeat([]byte{0x33}, 2*addrspace.PageSize)); err != nil {
				t.Fatal(err)
			}
			_, _ = st1, ckptDelta2(t, e, cs, space, st1, "g2")
			if gz {
				cs["g1"] = gzipFlagged(cs["g1"])
				if _, err := cs.resolve("g2"); !errors.Is(err, ErrUnsupportedVersion) {
					t.Fatalf("resolving a chain with a gzip-flagged member = %v, want ErrUnsupportedVersion", err)
				}
				return
			}

			// Reference: a full base at the same point.
			var ref bytes.Buffer
			if _, _, err := e.CheckpointDelta(context.Background(), &ref, space, nil, ""); err != nil {
				t.Fatal(err)
			}
			refImg, err := ReadImage(bytes.NewReader(ref.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			alone, err := ReadImage(bytes.NewReader(cs["g2"]))
			if err != nil {
				t.Fatal(err)
			}
			rd := alone.Regions[0]
			if err := alone.readRegionRange(rd.Start, make([]byte, rd.Len), new(shardCache)); !errors.Is(err, ErrDeltaChain) {
				t.Fatalf("an unlinked delta's clean shards must not read back: %v", err)
			}
			sameContent(t, cs.openChain(t, "g2"), refImg)
		})
	}
}

// ckptDelta2 mirrors ckptDelta but discards the stats (loop helper).
func ckptDelta2(t *testing.T, e *Engine, cs chainStore, space *addrspace.Space, prev *DeltaState, name string) *DeltaState {
	t.Helper()
	_, state := ckptDelta(t, e, cs, space, prev, name)
	return state
}

func TestV3DeltaSkipsCleanSectionShards(t *testing.T) {
	space, _, _ := buildDeltaSpace(t)
	e := NewEngine()
	e.ShardSize = addrspace.PageSize
	grow := bytes.Repeat([]byte{0x55}, 3*addrspace.PageSize)
	p := &growingSectionPlugin{data: grow}
	e.Register(p)
	cs := chainStore{}
	_, st0 := ckptDelta(t, e, cs, space, nil, "b")
	// Append one page to the section; nothing else changes.
	p.data = append(p.data, bytes.Repeat([]byte{0x66}, addrspace.PageSize)...)
	st, st1 := ckptDelta(t, e, cs, space, st0, "d")
	// Only the appended section page is dirty (region payload clean).
	if st.PayloadWritten != addrspace.PageSize {
		t.Fatalf("append-only section re-emitted %d bytes, want one page", st.PayloadWritten)
	}
	sec, err := cs.openChain(t, "d").SectionBytes("grow.data")
	if err != nil || !bytes.Equal(sec, p.data) {
		t.Fatalf("chain-resolved grown section differs (%v)", err)
	}
	_ = st1
}

type growingSectionPlugin struct {
	data []byte
}

func (p *growingSectionPlugin) Name() string { return "grow" }
func (p *growingSectionPlugin) Freeze(uint64, uint64, bool) (EmitFunc, uint64, error) {
	data := append([]byte(nil), p.data...)
	return func(_ context.Context, _ addrspace.View, s *SectionMap) error {
		s.Add("grow.data", data)
		return nil
	}, 0, nil
}
func (p *growingSectionPlugin) Resume() error                                    { return nil }
func (p *growingSectionPlugin) LazyRestart(context.Context, *LazyRestorer) error { return nil }

func TestV3WorkerCountDeterminism(t *testing.T) {
	images := map[int][]byte{}
	for _, workers := range []int{1, 4} {
		space, big, _ := buildDeltaSpace(t)
		e := NewEngine()
		e.Workers = workers
		e.ShardSize = addrspace.PageSize
		cs := chainStore{}
		_, st0 := ckptDelta(t, e, cs, space, nil, "b")
		if err := space.WriteAt(big+3*addrspace.PageSize, bytes.Repeat([]byte{0x42}, addrspace.PageSize)); err != nil {
			t.Fatal(err)
		}
		ckptDelta(t, e, cs, space, st0, "d")
		images[workers] = append(cs["b"], cs["d"]...)
	}
	if !bytes.Equal(images[1], images[4]) {
		t.Fatal("v3 images differ between worker counts")
	}
}

func TestV3HashCorruptionDetected(t *testing.T) {
	space, _, _ := buildDeltaSpace(t)
	e := NewEngine()
	e.ShardSize = addrspace.PageSize
	cs := chainStore{}
	ckptDelta(t, e, cs, space, nil, "b")
	img := cs["b"]
	// Flip a byte in the last shard's payload (well past the header,
	// before the integrity trailer). Integrity failures now classify
	// as ErrCorruptImage, distinct from structural ErrBadImage.
	bad := append([]byte(nil), img...)
	bad[len(bad)-1-trailerSize] ^= 0xFF
	if _, err := ReadImage(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("corrupted payload not detected: %v", err)
	}
	// The trailer itself is covered too.
	bad = append([]byte(nil), img...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := ReadImage(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("corrupted trailer not detected: %v", err)
	}
}

func TestV3DeltaRestoreWithoutChainFails(t *testing.T) {
	space, big, _ := buildDeltaSpace(t)
	e := NewEngine()
	e.ShardSize = addrspace.PageSize
	cs := chainStore{}
	_, st0 := ckptDelta(t, e, cs, space, nil, "b")
	if err := space.WriteAt(big, []byte{1}); err != nil {
		t.Fatal(err)
	}
	ckptDelta(t, e, cs, space, st0, "d")
	if err := restoreImage(nil, cs["d"], addrspace.New(), 0); !errors.Is(err, ErrDeltaChain) {
		t.Fatalf("restoring an unresolved delta must fail with ErrDeltaChain, got %v", err)
	}
	// A broken lineage (missing parent) also classifies as ErrDeltaChain.
	if _, err := (chainStore{"d": cs["d"]}).resolve("d"); !errors.Is(err, ErrDeltaChain) {
		t.Fatalf("missing parent must fail with ErrDeltaChain, got %v", err)
	}
}

func TestV3RegionRemapEmitsFully(t *testing.T) {
	space, big, _ := buildDeltaSpace(t)
	e := NewEngine()
	e.ShardSize = addrspace.PageSize
	cs := chainStore{}
	_, st0 := ckptDelta(t, e, cs, space, nil, "b")
	// Unmap the middle of big: the region splits; the delta's table must
	// reflect the split and the materialized chain must still match a
	// fresh base.
	if err := space.MUnmap(big+4*addrspace.PageSize, 2*addrspace.PageSize); err != nil {
		t.Fatal(err)
	}
	// Map a brand-new region: stamped dirty from birth.
	nr, err := space.MMap(0, addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfUpper, "new")
	if err != nil {
		t.Fatal(err)
	}
	if err := space.WriteAt(nr, bytes.Repeat([]byte{0x77}, addrspace.PageSize)); err != nil {
		t.Fatal(err)
	}
	ckptDelta(t, e, cs, space, st0, "d")

	var ref bytes.Buffer
	if _, _, err := e.CheckpointDelta(context.Background(), &ref, space, nil, ""); err != nil {
		t.Fatal(err)
	}
	refImg, err := ReadImage(bytes.NewReader(ref.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameContent(t, cs.openChain(t, "d"), refImg)
}

func TestReadImageMeta(t *testing.T) {
	space, big, _ := buildDeltaSpace(t)
	e := NewEngine()
	cs := chainStore{}
	_, st0 := ckptDelta(t, e, cs, space, nil, "base")
	if err := space.WriteAt(big, []byte{9}); err != nil {
		t.Fatal(err)
	}
	ckptDelta(t, e, cs, space, st0, "d1")

	m, err := ReadImageMeta(bytes.NewReader(cs["base"]))
	if err != nil || m.Unhashed || m.Delta || m.Parent != "" || m.Depth != 0 || m.ID == 0 {
		t.Fatalf("base meta: %+v, %v", m, err)
	}
	m, err = ReadImageMeta(bytes.NewReader(cs["d1"]))
	if err != nil || !m.Delta || m.Parent != "base" || m.Depth != 1 {
		t.Fatalf("delta meta: %+v, %v", m, err)
	}

	// Standalone images report no lineage.
	var solo bytes.Buffer
	if _, err := NewEngine().Checkpoint(context.Background(), &solo, space); err != nil {
		t.Fatal(err)
	}
	m, err = ReadImageMeta(bytes.NewReader(solo.Bytes()))
	if err != nil || m != (ImageMeta{Unhashed: true}) {
		t.Fatalf("standalone meta: %+v, %v", m, err)
	}
}

func TestV3ShardSizeChangeRotatesToBase(t *testing.T) {
	space, _, _ := buildDeltaSpace(t)
	e := NewEngine()
	e.ShardSize = addrspace.PageSize
	cs := chainStore{}
	_, st0 := ckptDelta(t, e, cs, space, nil, "b")
	e.ShardSize = 2 * addrspace.PageSize
	st, state := ckptDelta(t, e, cs, space, st0, "next")
	if st.Delta || state.Depth != 0 {
		t.Fatalf("shard-size change must force a base, got %+v", st)
	}
}

// hookWriter is a Plugin whose freeze hook itself writes to the space — the drain-time mutation window that must never lose
// bytes across a chain.
type hookWriter struct {
	space *addrspace.Space
	addr  uint64
	val   byte
	write bool
}

func (p *hookWriter) Name() string { return "hookwriter" }
func (p *hookWriter) Freeze(uint64, uint64, bool) (EmitFunc, uint64, error) {
	if p.write {
		if err := p.space.WriteAt(p.addr, []byte{p.val}); err != nil {
			return nil, 0, err
		}
	}
	return func(context.Context, addrspace.View, *SectionMap) error { return nil }, 0, nil
}
func (p *hookWriter) Resume() error                                    { return nil }
func (p *hookWriter) LazyRestart(context.Context, *LazyRestorer) error { return nil }

// TestV3HookTimeWritesStampAboveCut pins the cut ordering: a write
// performed during the checkpoint's own hooks (after the cut is taken)
// must be stamped above the cut and re-emitted by the NEXT delta, even
// though this checkpoint's payload may also have captured it. With the
// cut taken after the hooks, such writes would be stamped at the cut
// value, reported clean forever, and lost from the chain.
func TestV3HookTimeWritesStampAboveCut(t *testing.T) {
	space, big, _ := buildDeltaSpace(t)
	e := NewEngine()
	e.ShardSize = addrspace.PageSize
	hw := &hookWriter{space: space, addr: big + 7*addrspace.PageSize, val: 0x5A, write: true}
	e.Register(hw)
	cs := chainStore{}
	_, st0 := ckptDelta(t, e, cs, space, nil, "base")

	// The delta's own hook stays quiet: anything it emits for page 7 can
	// only come from the base's hook-time write.
	hw.write = false
	st, _ := ckptDelta(t, e, cs, space, st0, "d1")
	if st.PayloadWritten == 0 {
		t.Fatal("hook-time write of the base checkpoint was reported clean and lost")
	}
	got := regionBytes(t, cs.openChain(t, "d1"), "big")
	if got[7*addrspace.PageSize] != 0x5A {
		t.Fatalf("chain lost the hook-time write: byte = %#x", got[7*addrspace.PageSize])
	}
}

// TestV3DepthCapRotatesToBase pins the writer-side cap: the chain
// rotates to a base before reaching the reader's MaxChainDepth, so
// every written image stays restorable no matter the caller's policy.
func TestV3DepthCapRotatesToBase(t *testing.T) {
	space, _, _ := buildDeltaSpace(t)
	e := NewEngine()
	var st *DeltaState
	cs := chainStore{}
	maxSeen := 0
	for i := 0; i < MaxChainDepth+3; i++ {
		var buf bytes.Buffer
		stats, next, err := e.CheckpointDelta(context.Background(), &buf, space, st, fmt.Sprintf("g%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cs[fmt.Sprintf("g%d", i)] = buf.Bytes()
		if stats.DeltaDepth > maxSeen {
			maxSeen = stats.DeltaDepth
		}
		if stats.DeltaDepth >= MaxChainDepth {
			t.Fatalf("checkpoint %d written at unrestorable depth %d", i, stats.DeltaDepth)
		}
		st = next
	}
	if maxSeen != MaxChainDepth-1 {
		t.Fatalf("max depth seen %d, want rotation at %d", maxSeen, MaxChainDepth-1)
	}
	// The deepest tip still resolves.
	cs.openChain(t, fmt.Sprintf("g%d", MaxChainDepth-1))
}
