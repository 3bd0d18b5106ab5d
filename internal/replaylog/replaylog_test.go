package replaylog

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleEntries() []Entry {
	return []Entry{
		{Kind: KindRegisterFatBinary, Handle: 1, Module: "app"},
		{Kind: KindRegisterFunction, Handle: 1, Name: "vecAdd"},
		{Kind: KindMalloc, Size: 1024, Addr: 0x1000},
		{Kind: KindMalloc, Size: 2048, Addr: 0x2000},
		{Kind: KindFree, Addr: 0x1000},
		{Kind: KindMallocHost, Size: 64, Addr: 0x3000},
		{Kind: KindHostAlloc, Size: 128, Addr: 0xa0000000},
		{Kind: KindMallocManaged, Size: 4096, Addr: 0x4000},
		{Kind: KindStreamCreate, Handle: 1},
		{Kind: KindStreamCreate, Handle: 2},
		{Kind: KindStreamDestroy, Handle: 1},
		{Kind: KindEventCreate, Handle: 1},
	}
}

func TestAppendAndEntries(t *testing.T) {
	l := New()
	for _, e := range sampleEntries() {
		l.Append(e)
	}
	if l.Len() != len(sampleEntries()) {
		t.Fatalf("len = %d", l.Len())
	}
	if !reflect.DeepEqual(l.Entries(), sampleEntries()) {
		t.Fatal("entries mismatch")
	}
}

func TestActiveSet(t *testing.T) {
	l := New()
	for _, e := range sampleEntries() {
		l.Append(e)
	}
	as := l.Active()
	if len(as.Device) != 1 || as.Device[0].Addr != 0x2000 || as.Device[0].Size != 2048 {
		t.Fatalf("device = %+v", as.Device)
	}
	if len(as.Pinned) != 1 || as.Pinned[0].Addr != 0x3000 {
		t.Fatalf("pinned = %+v", as.Pinned)
	}
	if len(as.Host) != 1 || as.Host[0].Addr != 0xa0000000 {
		t.Fatalf("host = %+v", as.Host)
	}
	if len(as.Managed) != 1 || as.Managed[0].Addr != 0x4000 {
		t.Fatalf("managed = %+v", as.Managed)
	}
	if !reflect.DeepEqual(as.Streams, []uint64{2}) {
		t.Fatalf("streams = %v", as.Streams)
	}
	if !reflect.DeepEqual(as.Events, []uint64{1}) {
		t.Fatalf("events = %v", as.Events)
	}
	if len(as.FatBins) != 1 || as.FatBins[0].Module != "app" ||
		!reflect.DeepEqual(as.FatBins[0].Functions, []string{"vecAdd"}) {
		t.Fatalf("fatbins = %+v", as.FatBins)
	}
}

func TestActiveSetUnregisterFatBinary(t *testing.T) {
	l := New()
	l.Append(Entry{Kind: KindRegisterFatBinary, Handle: 1, Module: "a"})
	l.Append(Entry{Kind: KindRegisterFatBinary, Handle: 2, Module: "b"})
	l.Append(Entry{Kind: KindUnregisterFatBinary, Handle: 1})
	as := l.Active()
	if len(as.FatBins) != 1 || as.FatBins[0].Module != "b" {
		t.Fatalf("fatbins = %+v", as.FatBins)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := New()
	for _, e := range sampleEntries() {
		l.Append(e)
	}
	var buf bytes.Buffer
	if err := EncodeEntries(&buf, l.Entries()); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Entries(), l.Entries()) {
		t.Fatal("round trip mismatch")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := DecodeBytes([]byte("garbagegarbage")); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v", err)
	}
	if _, err := DecodeBytes(nil); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("empty err = %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	l := New()
	l.Append(Entry{Kind: KindMalloc, Size: 8, Addr: 0x100})
	var buf bytes.Buffer
	if err := EncodeEntries(&buf, l.Entries()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := DecodeBytes(b[:len(b)-3]); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("truncated err = %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindMalloc; k <= KindUnregisterFatBinary; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Fatal("unknown kind string")
	}
	for _, e := range sampleEntries() {
		if e.String() == "" {
			t.Fatalf("entry %v has no string", e.Kind)
		}
	}
}

// TestQuickEncodeDecode property: Encode∘Decode is identity for
// arbitrary entries.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(kinds []uint8, sizes []uint64, mods []string) bool {
		l := New()
		for i, k := range kinds {
			e := Entry{Kind: Kind(k%15 + 1)}
			if i < len(sizes) {
				e.Size = sizes[i]
				e.Addr = sizes[i] ^ 0xdead
				e.Handle = sizes[i] >> 3
			}
			if i < len(mods) && len(mods[i]) < 1000 {
				e.Module = mods[i]
				e.Name = mods[i]
			}
			l.Append(e)
		}
		var buf bytes.Buffer
		if err := EncodeEntries(&buf, l.Entries()); err != nil {
			return false
		}
		got, err := DecodeBytes(buf.Bytes())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Entries(), l.Entries())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickActiveMallocInvariant property (DESIGN.md invariant 2): for a
// random but well-formed malloc/free sequence, the active set equals the
// allocations never freed, in allocation order.
func TestQuickActiveMallocInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		l := New()
		type alloc struct{ addr, size uint64 }
		var live []alloc
		next := uint64(0x1000)
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				l.Append(Entry{Kind: KindFree, Addr: live[i].addr})
				live = append(live[:i], live[i+1:]...)
			} else {
				a := alloc{addr: next, size: uint64(op) + 1}
				next += 0x1000
				l.Append(Entry{Kind: KindMalloc, Size: a.size, Addr: a.addr})
				live = append(live, a)
			}
		}
		as := l.Active()
		if len(as.Device) != len(live) {
			return false
		}
		// Active order is allocation order of surviving allocations.
		want := make(map[uint64]uint64, len(live))
		for _, a := range live {
			want[a.addr] = a.size
		}
		for _, a := range as.Device {
			if want[a.Addr] != a.Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestViewIsImmutablePrefix: View is the O(1) stop-the-world capture a
// concurrent checkpoint takes — later appends must not leak into it,
// and ActiveOf/EncodeEntries over the view must equal what the live log
// would have produced at capture time.
func TestViewIsImmutablePrefix(t *testing.T) {
	l := New()
	l.Append(Entry{Kind: KindMalloc, Size: 64, Addr: 0x100})
	l.Append(Entry{Kind: KindMalloc, Size: 64, Addr: 0x200})
	v := l.View()
	var atCut bytes.Buffer
	if err := EncodeEntries(&atCut, l.Entries()); err != nil {
		t.Fatal(err)
	}
	// Mutate after the capture: enough appends to force a reallocation
	// and exercise the in-place-append path first.
	l.Append(Entry{Kind: KindFree, Addr: 0x100})
	for i := 0; i < 64; i++ {
		l.Append(Entry{Kind: KindMalloc, Size: 8, Addr: 0x1000 + uint64(i)*64})
	}
	if len(v) != 2 {
		t.Fatalf("view grew to %d entries", len(v))
	}
	as := ActiveOf(v)
	if len(as.Device) != 2 {
		t.Fatalf("ActiveOf(view) sees %d device allocs, want 2 (free is post-capture)", len(as.Device))
	}
	var fromView bytes.Buffer
	if err := EncodeEntries(&fromView, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromView.Bytes(), atCut.Bytes()) {
		t.Fatal("EncodeEntries(view) differs from the capture-time encoding")
	}
	if len(l.Entries()) != 67 {
		t.Fatalf("live log has %d entries, want 67", len(l.Entries()))
	}
}
