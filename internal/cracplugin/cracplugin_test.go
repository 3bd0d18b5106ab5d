package cracplugin

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/cracrt"
	"repro/internal/cuda"
	"repro/internal/dmtcp"
	"repro/internal/fsgs"
	"repro/internal/loader"
	"repro/internal/replaylog"
	"repro/internal/uvm"
)

func buildRT(t *testing.T) (*cracrt.Runtime, *cuda.Library) {
	t.Helper()
	space := addrspace.New()
	helper, err := loader.NewLower(space).Load(loader.HelperSpec(cracrt.Symbols))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := cuda.NewLibrary(cuda.Config{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lib.Destroy)
	entries := make(cracrt.EntryTable)
	for _, s := range cracrt.Symbols {
		a, _ := helper.Entry(s)
		entries[s] = a
	}
	return cracrt.New(lib, entries, fsgs.None{}), lib
}

// freezeEmit runs the plugin's whole checkpoint hook — Freeze, then the
// emit it returns — over the live space, for a standalone image.
func freezeEmit(t *testing.T, p *Plugin) *dmtcp.SectionMap {
	t.Helper()
	emit, _, err := p.Freeze(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sections := dmtcp.NewSectionMap()
	if err := emit(context.Background(), p.rt.Library().Space(), sections); err != nil {
		t.Fatal(err)
	}
	return sections
}

func sectionBytes(t *testing.T, sections *dmtcp.SectionMap, name string) []byte {
	t.Helper()
	b, err := sections.Bytes(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPreCheckpointSectionsAndDrain(t *testing.T) {
	rt, lib := buildRT(t)
	d, err := rt.Malloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(d, 0x42, 8192); err != nil {
		t.Fatal(err)
	}
	m, err := rt.MallocManaged(4096)
	if err != nil {
		t.Fatal(err)
	}
	p := New(rt)
	p.SetRootBlob([]byte("root!"))

	sections := freezeEmit(t, p)
	if !lib.Device().Drained() {
		t.Fatal("device not drained by Freeze")
	}
	for _, name := range []string{SectionLog, SectionRoot, SectionLower} {
		sectionBytes(t, sections, name)
	}
	log, err := replaylog.DecodeBytes(sectionBytes(t, sections, SectionLog))
	if err != nil {
		t.Fatal(err)
	}
	as := log.Active()
	if len(as.Device) != 1 || len(as.Managed) != 1 {
		t.Fatalf("active from image log = %+v", as)
	}
	if root := sectionBytes(t, sections, SectionRoot); string(root) != "root!" {
		t.Fatalf("root section = %q", root)
	}
	// Every active allocation is one fill-only span of its class; no
	// device memory enters a section.
	want := []dmtcp.RegionData{{Start: d, Len: 8192, Class: dmtcp.ClassDevice}, {Start: m, Len: 4096, Class: dmtcp.ClassManaged}}
	var fills []dmtcp.RegionData
	for _, rd := range restoreIndex(t, checkpointImage(t, p, p)).Regions {
		if rd.FillOnly() {
			fills = append(fills, rd)
		}
	}
	if !reflect.DeepEqual(fills, want) {
		t.Fatalf("fill-only spans = %+v, want %+v", fills, want)
	}
	if err := p.Resume(); err != nil {
		t.Fatal(err)
	}
}

// restoreIndex opens an image for the plugin's restart hook.
func restoreIndex(t *testing.T, img []byte) *dmtcp.ShardIndex {
	t.Helper()
	ix, err := dmtcp.OpenShardIndex(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkpointImage writes a full image of the plugin's runtime through
// an engine over the live space.
func checkpointImage(t *testing.T, p *Plugin, plugins ...dmtcp.Plugin) []byte {
	t.Helper()
	e := dmtcp.NewEngine()
	for _, pl := range plugins {
		e.Register(pl)
	}
	var img bytes.Buffer
	if _, err := e.Checkpoint(context.Background(), &img, p.rt.Library().Space()); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

func TestRestartRefills(t *testing.T) {
	rt, _ := buildRT(t)
	d, _ := rt.Malloc(4096)
	if err := rt.Memset(d, 0x99, 4096); err != nil {
		t.Fatal(err)
	}
	p := New(rt)
	ix := restoreIndex(t, checkpointImage(t, p, p))

	// Fresh process: new space/library, replay the log, then plan the
	// refill and read it back through the fault path.
	space2 := addrspace.New()
	helper2, _ := loader.NewLower(space2).Load(loader.HelperSpec(cracrt.Symbols))
	lib2, _ := cuda.NewLibrary(cuda.Config{Space: space2})
	t.Cleanup(lib2.Destroy)
	entries2 := make(cracrt.EntryTable)
	for _, s := range cracrt.Symbols {
		a, _ := helper2.Entry(s)
		entries2[s] = a
	}
	logBytes, err := ix.SectionBytes(SectionLog)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := replaylog.DecodeBytes(logBytes)
	lowerBytes, err := ix.SectionBytes(SectionLower)
	if err != nil {
		t.Fatal(err)
	}
	active := log.Active()
	layout, err := DecodeLowerLayout(lowerBytes, space2.LowerWindow(), cracrt.LiveSet(active))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Rebind(lib2, entries2, log, active, layout); err != nil {
		t.Fatal(err)
	}
	if err := CheckFills(ix.Regions, active); err != nil {
		t.Fatal(err)
	}
	r, err := dmtcp.NewLazyRestorer(space2, []*dmtcp.ShardIndex{ix})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.MapRegions(); err != nil {
		t.Fatal(err)
	}
	if err := p.LazyRestart(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	space2.BeginLazy(r.MaterializeRange)
	r.Seal()
	buf := make([]byte, 4096)
	if err := space2.ReadAt(d, buf); err != nil {
		t.Fatal(err)
	}
	for _, v := range buf {
		if v != 0x99 {
			t.Fatalf("refilled byte = %#x, want 0x99", v)
		}
	}
}

// TestRestartWithoutDevMemSectionFails: an image whose fill-only spans
// are not its log's active allocations — here, an image with none — is
// refused as a bad image.
func TestRestartWithoutDevMemSectionFails(t *testing.T) {
	rt, _ := buildRT(t)
	d, err := rt.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	p := New(rt)
	active := replaylog.ActiveSet{Device: []replaylog.Allocation{{Addr: d, Size: 4096}}}
	ix := restoreIndex(t, checkpointImage(t, p)) // no plugin: no spans
	if err := CheckFills(ix.Regions, active); !errors.Is(err, dmtcp.ErrBadImage) {
		t.Fatalf("image without the allocation's span: %v, want ErrBadImage", err)
	}
	full := restoreIndex(t, checkpointImage(t, p, p))
	if err := CheckFills(full.Regions, active); err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]replaylog.ActiveSet{
		"other size":  {Device: []replaylog.Allocation{{Addr: d, Size: 8192}}},
		"other class": {Pinned: []replaylog.Allocation{{Addr: d, Size: 4096}}},
		"extra":       {Device: []replaylog.Allocation{{Addr: d, Size: 4096}, {Addr: d + 4096, Size: 256}}},
		"none":        {},
	} {
		if err := CheckFills(full.Regions, other); !errors.Is(err, dmtcp.ErrBadImage) {
			t.Fatalf("%s: %v, want ErrBadImage", name, err)
		}
	}
}

func TestRootBlobCopySemantics(t *testing.T) {
	rt, _ := buildRT(t)
	p := New(rt)
	b := []byte{1, 2, 3}
	p.SetRootBlob(b)
	b[0] = 99 // caller mutation must not leak in
	got := p.RootBlob()
	if got[0] != 1 {
		t.Fatal("root blob aliases caller memory")
	}
	got[1] = 99 // returned copy must not leak back
	if p.RootBlob()[1] != 2 {
		t.Fatal("root blob getter aliases internal memory")
	}
}

// TestIncrementalDrainSkipsCleanAllocations pins, through the engine,
// which fill-only shards a delta emits: a shard of an allocation is
// re-emitted when one of its pages was written, when the parent's span
// table does not cover it, or — for managed memory — when a page left
// the host since the parent's UVM cut; every other shard resolves to
// the parent. The live set being the same, a delta's PayloadTotal is
// its base's.
func TestIncrementalDrainSkipsCleanAllocations(t *testing.T) {
	const shard = 256 << 10
	rt, lib := buildRT(t)
	space := lib.Space()
	d1, err := rt.Malloc(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := rt.Malloc(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.MallocManaged(shard)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []uint64{d1, d2} {
		if err := rt.Memset(a, 0x11, 2<<20); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Memset(m, 0x11, shard); err != nil {
		t.Fatal(err)
	}
	p := New(rt)
	e := dmtcp.NewEngine()
	e.ShardSize = shard
	e.Register(p)
	var prev *dmtcp.DeltaState
	gen := 0
	checkpoint := func() dmtcp.Stats {
		t.Helper()
		var img bytes.Buffer
		gen++
		st, next, err := e.CheckpointDelta(context.Background(), &img, space, prev, fmt.Sprintf("g%d", gen))
		if err != nil {
			t.Fatal(err)
		}
		prev = next
		return st
	}

	base := checkpoint()
	if want := uint64(4<<20 + shard); base.PayloadTotal-base.SectionBytes != want || base.PayloadWritten != base.PayloadTotal {
		t.Fatalf("base: %d span bytes, %d of %d written; want %d span bytes, all written", base.PayloadTotal-base.SectionBytes, base.PayloadWritten, base.PayloadTotal, want)
	}
	// Nothing changed: nothing is emitted.
	if st := checkpoint(); st.PayloadWritten != 0 || st.PayloadTotal != base.PayloadTotal {
		t.Fatalf("idle delta wrote %d bytes (total %d, base %d)", st.PayloadWritten, st.PayloadTotal, base.PayloadTotal)
	}
	// One dirty page of a 2 MiB allocation emits its one shard.
	if err := rt.Memset(d2+5*shard+100, 0x22, 1); err != nil {
		t.Fatal(err)
	}
	if st := checkpoint(); st.ShardsWritten != 1 || st.PayloadWritten != shard || st.PayloadTotal != base.PayloadTotal {
		t.Fatalf("one dirty page: %d shards, %d bytes written (total %d, base %d); want one %d-byte shard",
			st.ShardsWritten, st.PayloadWritten, st.PayloadTotal, base.PayloadTotal, shard)
	}
	// An allocation carved after the cut from the already-mapped chunk,
	// never written: its pages are clean, but the parent does not hold
	// it.
	d3, err := rt.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if space.RangeDirtySince(d3, 4096, prev.Cut) {
		t.Fatal("test premise: a fresh carve from a mapped chunk reads dirty")
	}
	if st := checkpoint(); st.PayloadWritten < 4096 || st.PayloadWritten > 4096+st.SectionBytes {
		t.Fatalf("fresh allocation: %d bytes written, want its 4096 plus changed sections (at most %d)", st.PayloadWritten, st.SectionBytes)
	}
	// A device touch of the managed buffer writes no byte the space
	// stamps, but the page left the host: its shard is emitted.
	if err := lib.MemPrefetch(m, shard, uvm.Device); err != nil {
		t.Fatal(err)
	}
	if st := checkpoint(); st.ShardsWritten != 1 || st.PayloadWritten != shard {
		t.Fatalf("device-resident managed buffer: %d shards, %d bytes written; want its one shard", st.ShardsWritten, st.PayloadWritten)
	}
}

// TestFillSpanRuns pins how active allocations become fill-only spans:
// same-class allocations whose carved blocks meet (padding to the
// 256-byte granularity included) share one span; a gap or another class
// starts a new one.
func TestFillSpanRuns(t *testing.T) {
	active := replaylog.ActiveSet{
		Device: []replaylog.Allocation{{Addr: 0x10200, Size: 100}, {Addr: 0x10000, Size: 0x1ff}, {Addr: 0x10300, Size: 8}, {Addr: 0x20000, Size: 16}},
		Pinned: []replaylog.Allocation{{Addr: 0x10400, Size: 256}},
	}
	want := []dmtcp.RegionData{
		{Start: 0x10000, Len: 0x308, Class: dmtcp.ClassDevice},
		{Start: 0x10400, Len: 256, Class: dmtcp.ClassPinned},
		{Start: 0x20000, Len: 16, Class: dmtcp.ClassDevice},
	}
	runs := runsOf(active)
	if len(runs) != len(want) {
		t.Fatalf("runs = %+v, want %+v", runs, want)
	}
	for i, r := range runs {
		if r.RegionData != want[i] {
			t.Fatalf("run %d = %+v, want %+v", i, r.RegionData, want[i])
		}
	}
	if len(runs[0].allocs) != 3 || runs[0].allocs[0].Addr != 0x10000 {
		t.Fatalf("first run's allocations %+v, want the three in address order", runs[0].allocs)
	}
	if err := CheckFills(want, active); err != nil {
		t.Fatal(err)
	}
}
