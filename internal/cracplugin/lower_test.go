package cracplugin

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/cracrt"
	"repro/internal/cuda"
	"repro/internal/replaylog"
)

var defaultLower = addrspace.Window{Start: addrspace.DefaultLowerStart, End: addrspace.DefaultLowerEnd}

func TestLowerLayoutRoundTrip(t *testing.T) {
	rt, lib := buildRT(t)
	if _, err := rt.Malloc(20 << 20); err != nil { // past one growth: a dedicated chunk
		t.Fatal(err)
	}
	if _, err := rt.MallocHost(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.MallocManaged(4096); err != nil {
		t.Fatal(err)
	}
	lay := cuda.LayoutOf(lib.Space())
	var arenas [cuda.NumArenas]int
	for _, c := range lay {
		arenas[c.Arena]++
	}
	if arenas[cuda.ArenaDevice] < 2 || arenas[cuda.ArenaPinned] == 0 || arenas[cuda.ArenaManaged] == 0 {
		t.Fatalf("layout %v misses an arena's chunks", lay)
	}
	live := cracrt.LiveSet(rt.Log().Active())
	got, err := DecodeLowerLayout(EncodeLowerLayout(lay), defaultLower, live)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lay) {
		t.Fatalf("round trip: %v, want %v", got, lay)
	}
	for i := range lay {
		if got[i] != lay[i] {
			t.Fatalf("round trip chunk %d: %v, want %v", i, got[i], lay[i])
		}
	}
	// A standalone image's section stays small: 17 bytes a chunk.
	if n := len(EncodeLowerLayout(lay)); n > 1<<10 {
		t.Fatalf("crac.lower is %d bytes for %d chunks", n, len(lay))
	}
}

// FuzzDecodeLowerLayout feeds DecodeLowerLayout arbitrary sections
// beside an arbitrary image log whose active set the layout must
// account for. It must fail with an error, never panic, never size
// anything by a claimed count, and accept only a layout the rebuild can
// take as it is: chunks page-aligned, ordered, disjoint, inside the
// lower window, every live allocation inside a chunk of its own arena,
// and the bytes exactly what the encoder writes. The committed corpus
// (testdata/fuzz/FuzzDecodeLowerLayout) holds the hostile shapes by
// name: truncated, a hostile count, overlapping chunks, a chunk outside
// the lower window, and a live allocation outside every chunk.
func FuzzDecodeLowerLayout(f *testing.F) {
	chunk := cuda.Layout{{Start: addrspace.DefaultLowerStart + 1<<20, Size: 1 << 20, Arena: cuda.ArenaDevice}}
	var logb bytes.Buffer
	if err := replaylog.EncodeEntries(&logb, []replaylog.Entry{
		{Kind: replaylog.KindMalloc, Size: 4096, Addr: addrspace.DefaultLowerStart + 1<<20},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeLowerLayout(chunk), logb.Bytes())
	f.Add(EncodeLowerLayout(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, sec, logBytes []byte) {
		var active replaylog.ActiveSet
		if l, err := replaylog.DecodeBytes(logBytes); err == nil {
			active = l.Active()
		}
		live := cracrt.LiveSet(active)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lay, err := DecodeLowerLayout(sec, defaultLower, live)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+8*uint64(len(sec)) {
			t.Fatalf("decoding a %d-byte section allocated %d", len(sec), grew)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeLowerLayout(lay), sec) {
			t.Fatal("accepted section does not re-encode to itself")
		}
		var end uint64
		for i, c := range lay {
			if c.Arena >= cuda.NumArenas || c.Size == 0 || c.Start%addrspace.PageSize != 0 ||
				c.Size%addrspace.PageSize != 0 || !defaultLower.Contains(c.Start, c.Size) || (i > 0 && c.Start < end) {
				t.Fatalf("accepted chunk %d: %+v", i, c)
			}
			end = c.Start + c.Size
		}
		for k, allocs := range live {
			for _, a := range allocs {
				inside := false
				for _, c := range lay {
					inside = inside || (c.Arena == cuda.Arena(k) && a.Addr >= c.Start && a.Addr+a.Size <= c.Start+c.Size)
				}
				if !inside {
					t.Fatalf("accepted layout leaves live %#x+%d (arena %d) outside its chunks", a.Addr, a.Size, k)
				}
			}
		}
	})
}
