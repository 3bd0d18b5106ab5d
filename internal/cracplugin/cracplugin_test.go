package cracplugin

import (
	"bytes"
	"context"
	"encoding/binary"
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
// emit it returns — over the live space.
func freezeEmit(t *testing.T, p *Plugin, since uint64, incremental bool) *dmtcp.SectionMap {
	t.Helper()
	emit, err := p.Freeze(since, incremental)
	if err != nil {
		t.Fatal(err)
	}
	sections := dmtcp.NewSectionMap()
	if err := emit(context.Background(), p.rt.Library().Space(), sections); err != nil {
		t.Fatal(err)
	}
	return sections
}

// sectionBytes materializes a section through the live space the emit
// read: literal pieces copied, allocation ranges read by address.
func sectionBytes(t *testing.T, p *Plugin, sections *dmtcp.SectionMap, name string) []byte {
	t.Helper()
	b, err := sections.Bytes(name, p.rt.Library().Space())
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
	_ = m
	p := New(rt)
	p.SetRootBlob([]byte("root!"))

	sections := freezeEmit(t, p, 0, false)
	if !lib.Device().Drained() {
		t.Fatal("device not drained by Freeze")
	}
	for _, name := range []string{SectionLog, SectionDevMem2, SectionRoot} {
		sectionBytes(t, p, sections, name)
	}
	logBytes := sectionBytes(t, p, sections, SectionLog)
	log, err := replaylog.DecodeBytes(logBytes)
	if err != nil {
		t.Fatal(err)
	}
	as := log.Active()
	if len(as.Device) != 1 || len(as.Managed) != 1 {
		t.Fatalf("active from image log = %+v", as)
	}
	if root := sectionBytes(t, p, sections, SectionRoot); string(root) != "root!" {
		t.Fatalf("root section = %q", root)
	}
	// The devmem payload contains the memset pattern.
	mem := sectionBytes(t, p, sections, SectionDevMem2)
	if !bytes.Contains(mem, bytes.Repeat([]byte{0x42}, 64)) {
		t.Fatal("device payload missing drained bytes")
	}
	// A standalone image bodies every allocation.
	entries, err := parseDevMem2(mem)
	if err != nil || len(entries) != 2 || entries[0].payload == nil || entries[1].payload == nil {
		t.Fatalf("standalone devmem2 entries = %+v, %v; want both present", entries, err)
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
	r, err := dmtcp.NewLazyRestorer(space2, []*dmtcp.ShardIndex{ix})
	if err != nil {
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

func TestRestartWithoutDevMemSectionFails(t *testing.T) {
	rt, _ := buildRT(t)
	p := New(rt)
	ix := restoreIndex(t, checkpointImage(t, p)) // no plugin: no sections
	r, err := dmtcp.NewLazyRestorer(addrspace.New(), []*dmtcp.ShardIndex{ix})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LazyRestart(context.Background(), r); err == nil {
		t.Fatal("restart without devmem section succeeded")
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

// drainDelta runs one incremental drain and returns the parsed devmem2
// entries keyed by address (payload nil when skipped).
func drainDelta(t *testing.T, p *Plugin, space *addrspace.Space, since uint64) map[uint64][]byte {
	t.Helper()
	sections := freezeEmit(t, p, since, true)
	if !sections.Opaque(SectionDevMem2) {
		t.Fatal("devmem2 must be marked opaque")
	}
	entries, err := parseDevMem2(sectionBytes(t, p, sections, SectionDevMem2))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]byte, len(entries))
	for _, e := range entries {
		out[e.addr] = e.payload
	}
	return out
}

// TestIncrementalDrainSkipsCleanAllocations pins the skip rules: clean
// committed allocations are listed without payload; dirty, uncommitted,
// or device-touched managed allocations are drained.
func TestIncrementalDrainSkipsCleanAllocations(t *testing.T) {
	rt, lib := buildRT(t)
	space := lib.Space()
	d1, err := rt.Malloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := rt.Malloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.MallocManaged(8192)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []uint64{d1, d2, m} {
		if err := rt.Memset(a, 0x11, 8192); err != nil {
			t.Fatal(err)
		}
	}
	p := New(rt)

	// Base drain (since 0): everything carries payload.
	base := drainDelta(t, p, space, 0)
	for addr, payload := range base {
		if payload == nil {
			t.Fatalf("base drain skipped %#x", addr)
		}
	}
	p.CommitIncremental()
	cut := space.CutEpoch()

	// Dirty d2 only.
	if err := rt.Memset(d2, 0x22, 100); err != nil {
		t.Fatal(err)
	}
	delta := drainDelta(t, p, space, cut)
	if delta[d1] != nil {
		t.Fatalf("clean allocation %#x re-drained", d1)
	}
	if delta[d2] == nil {
		t.Fatalf("dirty allocation %#x skipped", d2)
	}
	if delta[m] != nil {
		t.Fatalf("clean host-resident managed allocation %#x re-drained", m)
	}

	// A device touch of the managed buffer (no byte change visible to
	// the space epoch? prefetch migrates residency) forces a drain.
	p.CommitIncremental()
	cut = space.CutEpoch()
	if err := lib.MemPrefetch(m, 8192, uvm.Device); err != nil {
		t.Fatal(err)
	}
	delta = drainDelta(t, p, space, cut)
	if delta[m] == nil {
		t.Fatalf("device-resident managed allocation %#x must be drained", m)
	}

	// An uncommitted drain must not advance the baseline: repeat the
	// drain WITHOUT CommitIncremental after allocating a fresh buffer in
	// the pre-written arena; the new allocation is not in the committed
	// entry set, so it must carry payload even if its pages are stale.
	d3, err := rt.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	delta = drainDelta(t, p, space, cut)
	if delta[d3] == nil {
		t.Fatalf("never-committed allocation %#x skipped", d3)
	}
}

// TestMergeDevMem pins chain materialization of the devmem2 section.
func TestMergeDevMem(t *testing.T) {
	parent := devMem2Bytes(
		dm2Entry{addr: 0x1000, size: 4, payload: []byte("aaaa")},
		dm2Entry{addr: 0x2000, size: 4, payload: []byte("bbbb")},
	)
	// Delta: 0x1000 skipped (inherit), 0x2000 freed, 0x3000 new.
	delta := devMem2Bytes(
		dm2Entry{addr: 0x1000, size: 4},
		dm2Entry{addr: 0x3000, size: 4, payload: []byte("cccc")},
	)
	merged, err := MergeDevMem(devMem2Sections(delta, parent))
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseDevMem2(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0].payload, []byte("aaaa")) || !bytes.Equal(got[1].payload, []byte("cccc")) {
		t.Fatalf("merge result wrong: %+v", got)
	}
	// Three members: a skipped tip entry resolves to the nearest member
	// carrying it, through a middle delta that skipped it too.
	mid := devMem2Bytes(
		dm2Entry{addr: 0x1000, size: 4},
		dm2Entry{addr: 0x2000, size: 4, payload: []byte("BBBB")},
	)
	tip := devMem2Bytes(
		dm2Entry{addr: 0x2000, size: 4},
		dm2Entry{addr: 0x1000, size: 4},
	)
	merged, err = MergeDevMem(devMem2Sections(tip, mid, parent))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := parseDevMem2(merged); err != nil || len(got) != 2 ||
		got[0].addr != 0x2000 || !bytes.Equal(got[0].payload, []byte("BBBB")) || !bytes.Equal(got[1].payload, []byte("aaaa")) {
		t.Fatalf("three-member merge wrong: %+v (%v)", got, err)
	}
	// A middle member that dropped an allocation breaks a tip still
	// skipping it.
	if _, err := MergeDevMem(devMem2Sections(devMem2Bytes(dm2Entry{addr: 0x2000, size: 4}), delta, parent)); err == nil {
		t.Fatal("an allocation the middle member dropped must fail the merge")
	}
	// A skipped entry with no parent payload is a broken chain.
	bad := devMem2Bytes(dm2Entry{addr: 0x9000, size: 4})
	if _, err := MergeDevMem(devMem2Sections(bad, parent)); err == nil {
		t.Fatal("missing parent payload must fail the merge")
	}
	// Size mismatch against the parent payload also fails.
	badSize := devMem2Bytes(dm2Entry{addr: 0x1000, size: 8})
	if _, err := MergeDevMem(devMem2Sections(badSize, parent)); err == nil {
		t.Fatal("size mismatch must fail the merge")
	}
}

// TestParseDevMem2HostileInput pins that corrupt devmem2 sections fail
// with errors instead of panicking or over-allocating: a huge entry
// count, a huge size claim on a skipped entry, and a merge whose total
// exceeds the sanity cap.
func TestParseDevMem2HostileInput(t *testing.T) {
	// Count claims 2^32-1 entries in a 21-byte section.
	hugeCount := make([]byte, 4+devMem2EntryHdr)
	binary.LittleEndian.PutUint32(hugeCount, 0xFFFF_FFFF)
	if _, err := parseDevMem2(hugeCount); err == nil {
		t.Fatal("hostile count must fail")
	}
	// A skipped entry claiming a 2^63-byte allocation.
	hugeSize := make([]byte, 4+devMem2EntryHdr)
	binary.LittleEndian.PutUint32(hugeSize, 1)
	binary.LittleEndian.PutUint64(hugeSize[4:], 0x1000)
	binary.LittleEndian.PutUint64(hugeSize[12:], 1<<63)
	if _, err := parseDevMem2(hugeSize); err == nil {
		t.Fatal("hostile size must fail")
	}
	if _, err := MergeDevMem(devMem2Sections(hugeSize)); err == nil {
		t.Fatal("merge of hostile size must fail")
	}
	// Many skipped entries whose sizes sum past the section cap.
	const n = 16
	big := make([]byte, 4+n*devMem2EntryHdr)
	binary.LittleEndian.PutUint32(big, n)
	off := 4
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(big[off:], uint64(0x1000*(i+1)))
		binary.LittleEndian.PutUint64(big[off+8:], maxDevMemEntryBytes)
		off += devMem2EntryHdr
	}
	if _, err := MergeDevMem(devMem2Sections(big)); err == nil {
		t.Fatal("merge exceeding the total cap must fail")
	}
}
