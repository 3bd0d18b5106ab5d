package cuda

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/addrspace"
)

// liveOf is a library's live allocations per arena, as RebuildArenas
// takes them.
func liveOf(l *Library) LiveSet {
	return LiveSet{l.ActiveDeviceMallocs(), l.ActivePinnedMallocs(), l.ActiveManagedMallocs()}
}

// TestRebuildArenasReproducesAllocator: after a random malloc/free
// history with growth in all three arenas, a fresh library rebuilt from
// the layout and the live set holds the same allocator state, hands out
// the same next addresses, and counts one call per placed allocation.
func TestRebuildArenasReproducesAllocator(t *testing.T) {
	cfg := Config{DeviceArenaChunk: 256 << 10, PinnedArenaChunk: 64 << 10, ManagedArenaChunk: 256 << 10}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg.Space = addrspace.New()
		orig, err := NewLibrary(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mallocs := [NumArenas]func(uint64) (uint64, error){orig.Malloc, orig.MallocHost, orig.MallocManaged}
		frees := [NumArenas]func(uint64) error{orig.Free, orig.FreeHost, orig.Free}
		var live [NumArenas][]uint64
		for i := 0; i < 300; i++ {
			k := rng.Intn(int(NumArenas))
			if len(live[k]) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(live[k]))
				if err := frees[k](live[k][j]); err != nil {
					t.Fatal(err)
				}
				live[k] = append(live[k][:j], live[k][j+1:]...)
				continue
			}
			a, err := mallocs[k](uint64(1 + rng.Intn(200<<10)))
			if err != nil {
				t.Fatal(err)
			}
			live[k] = append(live[k], a)
		}

		cfg.Space = addrspace.New()
		re, err := NewLibrary(cfg)
		if err != nil {
			t.Fatal(err)
		}
		set := liveOf(orig)
		if err := re.RebuildArenas(LayoutOf(orig.Space()), set); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := re.ArenaStates(), orig.ArenaStates(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: rebuilt arenas differ:\n got %+v\nwant %+v", seed, got, want)
		}
		if n, want := re.APICalls(), uint64(len(set[0])+len(set[1])+len(set[2])); n != want {
			t.Fatalf("seed %d: rebuild issued %d calls for %d live allocations", seed, n, want)
		}
		if re.uvm.UntouchedHostPages() != orig.uvm.UntouchedHostPages() || re.uvmTouched.Load() != orig.uvmTouched.Load() {
			t.Fatalf("seed %d: UVM state not rebuilt", seed)
		}
		for _, a := range set[ArenaManaged] {
			if r, ok := re.uvm.Lookup(a.Addr); !ok || r.Base != a.Addr {
				t.Fatalf("seed %d: managed %#x not registered with UVM", seed, a.Addr)
			}
		}
		for i := 0; i < 32; i++ {
			k, size := rng.Intn(int(NumArenas)), uint64(1+rng.Intn(300<<10))
			a, _ := [NumArenas]func(uint64) (uint64, error){orig.Malloc, orig.MallocHost, orig.MallocManaged}[k](size)
			b, _ := [NumArenas]func(uint64) (uint64, error){re.Malloc, re.MallocHost, re.MallocManaged}[k](size)
			if a != b {
				t.Fatalf("seed %d: next allocation %d: original %#x, rebuilt %#x", seed, i, a, b)
			}
		}
		orig.Destroy()
		re.Destroy()
	}
}

func TestRebuildArenasPlacementMismatch(t *testing.T) {
	orig := newLib(t)
	if _, err := orig.Malloc(4096); err != nil {
		t.Fatal(err)
	}
	space := addrspace.New()
	if _, err := space.MMap(0, addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfLower, "intruder"); err != nil {
		t.Fatal(err)
	}
	re, err := NewLibrary(Config{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Destroy()
	if err := re.RebuildArenas(LayoutOf(orig.Space()), liveOf(orig)); !errors.Is(err, ErrPlacement) {
		t.Fatalf("rebuild onto a shifted space = %v, want ErrPlacement", err)
	}
	// A rebuild only ever runs on a fresh library.
	if err := orig.RebuildArenas(LayoutOf(orig.Space()), liveOf(orig)); err == nil {
		t.Fatal("rebuild over live arenas succeeded")
	}
}

func TestLayoutCheckRejects(t *testing.T) {
	lower := addrspace.Window{Start: addrspace.DefaultLowerStart, End: addrspace.DefaultLowerEnd}
	c := uint64(addrspace.DefaultLowerStart + 1<<20)
	chunk := Layout{{Start: c, Size: 1 << 20, Arena: ArenaDevice}}
	for _, tc := range []struct {
		name string
		lay  Layout
		live LiveSet
	}{
		{"unaligned chunk", Layout{{Start: c + 1, Size: 1 << 20}}, LiveSet{}},
		{"empty chunk", Layout{{Start: c}}, LiveSet{}},
		{"outside window", Layout{{Start: 0x1000, Size: 4096}}, LiveSet{}},
		{"out of order", Layout{{Start: c + 1<<20, Size: 4096}, {Start: c, Size: 4096}}, LiveSet{}},
		{"unknown arena", Layout{{Start: c, Size: 4096, Arena: NumArenas}}, LiveSet{}},
		{"live outside chunks", chunk, LiveSet{{{Addr: c + 2<<20, Size: 256}}}},
		{"live in another arena", chunk, LiveSet{ArenaPinned: {{Addr: c, Size: 256}}}},
		{"live past chunk end", chunk, LiveSet{{{Addr: c + 1<<20 - 256, Size: 512}}}},
		{"live overlapping", chunk, LiveSet{{{Addr: c, Size: 512}, {Addr: c + 256, Size: 256}}}},
		{"live unaligned", chunk, LiveSet{{{Addr: c + 8, Size: 256}}}},
		{"live empty", chunk, LiveSet{{{Addr: c, Size: 0}}}},
	} {
		if err := tc.lay.Check(lower, tc.live); !errors.Is(err, ErrBadLayout) {
			t.Errorf("%s: Check = %v, want ErrBadLayout", tc.name, err)
		}
	}
	if err := chunk.Check(lower, LiveSet{{{Addr: c, Size: 1 << 20}}}); err != nil {
		t.Fatalf("a chunk exactly filled: %v", err)
	}
}
