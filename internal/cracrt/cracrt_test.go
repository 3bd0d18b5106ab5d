package cracrt

import (
	"errors"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/crt"
	"repro/internal/cuda"
	"repro/internal/fsgs"
	"repro/internal/gpusim"
	"repro/internal/loader"
	"repro/internal/replaylog"
)

// buildRT constructs a CRAC runtime over a fresh space+library, like the
// session does.
func buildRT(t *testing.T) (*Runtime, *cuda.Library, *addrspace.Space) {
	t.Helper()
	space := addrspace.New()
	helper, err := loader.NewLower(space).Load(loader.HelperSpec(Symbols))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := cuda.NewLibrary(cuda.Config{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lib.Destroy)
	entries := make(EntryTable)
	for _, s := range Symbols {
		a, ok := helper.Entry(s)
		if !ok {
			t.Fatalf("missing entry %s", s)
		}
		entries[s] = a
	}
	return New(lib, entries, fsgs.None{}), lib, space
}

func TestLoggingOfResourceCalls(t *testing.T) {
	rt, _, _ := buildRT(t)
	a, err := rt.Malloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Free(a); err != nil {
		t.Fatal(err)
	}
	s, _ := rt.StreamCreate()
	_ = rt.StreamDestroy(s)
	fat, _ := rt.RegisterFatBinary("m")
	_ = rt.RegisterFunction(fat, "k", func(*cuda.DevCtx, gpusim.LaunchConfig, []uint64) {})
	entries := rt.Log().Entries()
	wantKinds := []replaylog.Kind{
		replaylog.KindMalloc, replaylog.KindFree,
		replaylog.KindStreamCreate, replaylog.KindStreamDestroy,
		replaylog.KindRegisterFatBinary, replaylog.KindRegisterFunction,
	}
	if len(entries) != len(wantKinds) {
		t.Fatalf("log = %v", entries)
	}
	for i, k := range wantKinds {
		if entries[i].Kind != k {
			t.Fatalf("entry %d kind = %v, want %v", i, entries[i].Kind, k)
		}
	}
}

func TestNonResourceCallsNotLogged(t *testing.T) {
	rt, _, _ := buildRT(t)
	d, _ := rt.Malloc(64)
	before := rt.Log().Len()
	_ = rt.Memset(d, 1, 64)
	_ = rt.DeviceSynchronize()
	if rt.Log().Len() != before {
		t.Fatal("non-resource calls were logged")
	}
}

func TestCountersFormula(t *testing.T) {
	rt, _, _ := buildRT(t)
	fat, _ := rt.RegisterFatBinary("m")
	_ = rt.RegisterFunction(fat, "k", func(*cuda.DevCtx, gpusim.LaunchConfig, []uint64) {})
	d, _ := rt.Malloc(64)
	_ = rt.Memset(d, 0, 64)
	for i := 0; i < 5; i++ {
		if err := rt.LaunchKernel(fat, "k", gpusim.LaunchConfig{}, crt.DefaultStream); err != nil {
			t.Fatal(err)
		}
	}
	_ = rt.DeviceSynchronize()
	c := rt.Counters()
	if c.LaunchKernel != 5 {
		t.Fatalf("launches = %d", c.LaunchKernel)
	}
	// 3 crossings per launch per the paper's formula.
	if got := c.TotalCUDACalls(); got != 3*5+c.OtherCalls {
		t.Fatalf("total = %d", got)
	}
}

func TestSwitcherCrossings(t *testing.T) {
	space := addrspace.New()
	helper, _ := loader.NewLower(space).Load(loader.HelperSpec(Symbols))
	lib, _ := cuda.NewLibrary(cuda.Config{Space: space})
	defer lib.Destroy()
	entries := make(EntryTable)
	for _, s := range Symbols {
		a, _ := helper.Entry(s)
		entries[s] = a
	}
	sw := fsgs.NewFSGSBase()
	rt := New(lib, entries, sw)
	d, _ := rt.Malloc(64)
	_ = rt.Memset(d, 0, 64)
	// Each call is one Enter+Exit pair.
	if got := sw.Switches(); got != 4 {
		t.Fatalf("switches = %d, want 4", got)
	}
	fat, _ := rt.RegisterFatBinary("m")
	_ = rt.RegisterFunction(fat, "k", func(*cuda.DevCtx, gpusim.LaunchConfig, []uint64) {})
	base := sw.Switches()
	_ = rt.LaunchKernel(fat, "k", gpusim.LaunchConfig{}, crt.DefaultStream)
	// A launch crosses three times: push, pop, launch (×2 for enter+exit).
	if got := sw.Switches() - base; got != 6 {
		t.Fatalf("launch switches = %d, want 6", got)
	}
}

func TestRebindReplaysToSameAddresses(t *testing.T) {
	rt, _, space := buildRT(t)
	kern := func(*cuda.DevCtx, gpusim.LaunchConfig, []uint64) {}
	fat, _ := rt.RegisterFatBinary("mod")
	_ = rt.RegisterFunction(fat, "k", kern)
	a, _ := rt.Malloc(1024)
	b, _ := rt.Malloc(2048)
	_ = rt.Free(a)
	c, _ := rt.Malloc(512)
	s1, _ := rt.StreamCreate()
	s2, _ := rt.StreamCreate()
	_ = rt.StreamDestroy(s1)
	ev, _ := rt.EventCreate()

	// Fresh lower half (new space, like a new process).
	space2 := addrspace.New()
	helper2, _ := loader.NewLower(space2).Load(loader.HelperSpec(Symbols))
	lib2, err := cuda.NewLibrary(cuda.Config{Space: space2})
	if err != nil {
		t.Fatal(err)
	}
	defer lib2.Destroy()
	entries2 := make(EntryTable)
	for _, s := range Symbols {
		addr, _ := helper2.Entry(s)
		entries2[s] = addr
	}
	if err := rt.Rebind(lib2, entries2, nil, rt.Log().Active(), cuda.LayoutOf(space)); err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	// Active allocations reappear at the original addresses.
	act := lib2.ActiveDeviceMallocs()
	if len(act) != 2 || act[0].Addr != b || act[1].Addr != c {
		t.Fatalf("active after replay = %+v (want %#x, %#x)", act, b, c)
	}
	// The surviving stream and event work; the destroyed stream does not.
	if err := rt.StreamSynchronize(s2); err != nil {
		t.Fatalf("restored stream: %v", err)
	}
	if err := rt.StreamSynchronize(s1); err == nil {
		t.Fatal("destroyed stream resurrected")
	}
	if err := rt.EventRecord(ev, s2); err != nil {
		t.Fatalf("restored event: %v", err)
	}
	// The fat binary was re-registered with a patched handle.
	if err := rt.LaunchKernel(fat, "k", gpusim.LaunchConfig{}, s2); err != nil {
		t.Fatalf("launch after rebind: %v", err)
	}
	// New handles after rebind do not collide with pre-rebind ones.
	s3, _ := rt.StreamCreate()
	if s3 == s1 || s3 == s2 {
		t.Fatalf("handle collision: %d", s3)
	}
}

func TestRebindDetectsAddressMismatch(t *testing.T) {
	rt, _, space := buildRT(t)
	if _, err := rt.Malloc(4096); err != nil {
		t.Fatal(err)
	}
	// Sabotage: a fresh library whose arena placement differs (an extra
	// region shifts the deterministic layout, as ASLR would).
	space2 := addrspace.New()
	if _, err := space2.MMap(0, addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfLower, "intruder"); err != nil {
		t.Fatal(err)
	}
	helper2, _ := loader.NewLower(space2).Load(loader.HelperSpec(Symbols))
	lib2, _ := cuda.NewLibrary(cuda.Config{Space: space2})
	defer lib2.Destroy()
	entries2 := make(EntryTable)
	for _, s := range Symbols {
		addr, _ := helper2.Entry(s)
		entries2[s] = addr
	}
	err := rt.Rebind(lib2, entries2, nil, rt.Log().Active(), cuda.LayoutOf(space))
	if !errors.Is(err, ErrReplayMismatch) {
		t.Fatalf("err = %v, want ErrReplayMismatch", err)
	}
}

func TestRebindWithExternalLogAndKernelTable(t *testing.T) {
	// Cross-process restore: the log comes from the image and kernels
	// resolve from a registered table.
	rt, _, _ := buildRT(t)
	log := replaylog.New()
	log.Append(replaylog.Entry{Kind: replaylog.KindRegisterFatBinary, Handle: 1, Module: "app"})
	log.Append(replaylog.Entry{Kind: replaylog.KindRegisterFunction, Handle: 1, Name: "k"})
	log.Append(replaylog.Entry{Kind: replaylog.KindStreamCreate, Handle: 1})

	space2 := addrspace.New()
	helper2, _ := loader.NewLower(space2).Load(loader.HelperSpec(Symbols))
	lib2, _ := cuda.NewLibrary(cuda.Config{Space: space2})
	defer lib2.Destroy()
	entries2 := make(EntryTable)
	for _, s := range Symbols {
		addr, _ := helper2.Entry(s)
		entries2[s] = addr
	}
	// Without the kernel table, replay cannot resolve "k".
	err := rt.Rebind(lib2, entries2, log, log.Active(), nil)
	if err == nil {
		t.Fatal("rebind resolved an unknown kernel")
	}
	rt2, _, _ := buildRT(t)
	rt2.RegisterKernelTable("app", map[string]cuda.Kernel{
		"k": func(*cuda.DevCtx, gpusim.LaunchConfig, []uint64) {},
	})
	space3 := addrspace.New()
	helper3, _ := loader.NewLower(space3).Load(loader.HelperSpec(Symbols))
	lib3, _ := cuda.NewLibrary(cuda.Config{Space: space3})
	defer lib3.Destroy()
	entries3 := make(EntryTable)
	for _, s := range Symbols {
		addr, _ := helper3.Entry(s)
		entries3[s] = addr
	}
	if err := rt2.Rebind(lib3, entries3, log, log.Active(), nil); err != nil {
		t.Fatalf("rebind with kernel table: %v", err)
	}
	if err := rt2.LaunchKernel(crt.FatBinHandle(1), "k", gpusim.LaunchConfig{}, crt.StreamHandle(1)); err != nil {
		t.Fatalf("launch on restored handles: %v", err)
	}
	_ = helper2
	_ = helper3
}

func TestMissingEntryPointFails(t *testing.T) {
	space := addrspace.New()
	lib, _ := cuda.NewLibrary(cuda.Config{Space: space})
	defer lib.Destroy()
	rt := New(lib, EntryTable{}, fsgs.None{}) // empty trampoline table
	if _, err := rt.Malloc(64); err == nil {
		t.Fatal("call without entry point succeeded")
	}
}

func TestHostAllocReplayOnlyActive(t *testing.T) {
	rt, lib, space := buildRT(t)
	h1, err := rt.HostAlloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := rt.HostAlloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.FreeHost(h1); err != nil {
		t.Fatal(err)
	}
	_ = lib

	// New process: restore upper half then rebind. Here we emulate the
	// restore by pre-mapping h2's region in the fresh space.
	space2 := addrspace.New()
	helper2, _ := loader.NewLower(space2).Load(loader.HelperSpec(Symbols))
	_ = helper2
	if _, err := space2.MMap(h2, 4096, addrspace.ProtRW, addrspace.MapFixedNoReplace, addrspace.HalfUpper, "restored"); err != nil {
		t.Fatal(err)
	}
	lib2, _ := cuda.NewLibrary(cuda.Config{Space: space2})
	defer lib2.Destroy()
	entries2 := make(EntryTable)
	for _, s := range Symbols {
		addr, _ := helper2.Entry(s)
		entries2[s] = addr
	}
	if err := rt.Rebind(lib2, entries2, nil, rt.Log().Active(), cuda.LayoutOf(space)); err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	// Only h2 was re-registered.
	act := lib2.ActiveHostAllocs()
	if len(act) != 1 || act[0].Addr != h2 {
		t.Fatalf("host allocs after replay = %+v", act)
	}
}
