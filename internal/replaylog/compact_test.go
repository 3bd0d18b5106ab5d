package replaylog

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestCompactKeepsLiveAndDeadTops: the normal form of a churned log is
// its live creations in call order, a live fat binary's function
// registrations, and the create/destroy pair of each dead highest
// handle.
func TestCompactKeepsLiveAndDeadTops(t *testing.T) {
	log := []Entry{
		{Kind: KindRegisterFatBinary, Handle: 1, Module: "app"},
		{Kind: KindRegisterFunction, Handle: 1, Name: "k"},
		{Kind: KindMalloc, Size: 64, Addr: 0x1000},
		{Kind: KindMalloc, Size: 64, Addr: 0x2000},
		{Kind: KindFree, Addr: 0x1000},
		{Kind: KindStreamCreate, Handle: 1},
		{Kind: KindStreamCreate, Handle: 2},
		{Kind: KindStreamDestroy, Handle: 2},
		{Kind: KindEventCreate, Handle: 1},
		{Kind: KindEventDestroy, Handle: 1},
		{Kind: KindRegisterFatBinary, Handle: 2, Module: "lib"},
		{Kind: KindRegisterFunction, Handle: 2, Name: "g"},
		{Kind: KindUnregisterFatBinary, Handle: 2},
		{Kind: KindMalloc, Size: 32, Addr: 0x1000},
		{Kind: KindMallocManaged, Size: 128, Addr: 0x5000},
		{Kind: KindFreeManaged, Addr: 0x5000},
	}
	want := []Entry{
		log[0], log[1], // live fat binary and its function
		log[3],         // live malloc
		log[5],         // live stream
		log[6], log[7], // dead highest stream
		log[8], log[9], // dead highest event
		log[10], log[12], // dead highest fat binary, without its functions
		log[13], // the address reissued after its free
	}
	got := Compact(log)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Compact =\n%v\nwant\n%v", got, want)
	}
	as, normal := Normalize(log)
	if !reflect.DeepEqual(normal, want) || !reflect.DeepEqual(as, ActiveOf(log)) {
		t.Fatal("Normalize differs from ActiveOf and Compact")
	}
	if !reflect.DeepEqual(ActiveOf(got), ActiveOf(log)) {
		t.Fatalf("active set changed: %+v vs %+v", ActiveOf(got), ActiveOf(log))
	}
	if !reflect.DeepEqual(Compact(sampleEntries()[:4]), sampleEntries()[:4]) {
		t.Fatal("a log with no frees is not its own normal form")
	}
}

// TestLogCompactsItself: a log that churns stays under its compaction
// floor and keeps its active set, and a compaction never writes into a
// view taken before it.
func TestLogCompactsItself(t *testing.T) {
	entry := func(j int) Entry {
		switch {
		case j == 0:
			return Entry{Kind: KindStreamCreate, Handle: 1}
		case j == 1:
			return Entry{Kind: KindMalloc, Size: 64, Addr: 0x100}
		case j%2 == 0:
			return Entry{Kind: KindMalloc, Size: 8, Addr: 0x1000 + uint64(j%97)<<12}
		default:
			return Entry{Kind: KindFree, Addr: 0x1000 + uint64((j-1)%97)<<12}
		}
	}
	l := New()
	var views [][]Entry // one after each append before the first compaction
	for j := 0; j < 20*compactFloor; j++ {
		l.Append(entry(j))
		if j < compactFloor-1 {
			views = append(views, l.View())
		}
		if n := l.Len(); n > compactFloor {
			t.Fatalf("after %d appends the log holds %d entries", j+1, n)
		}
	}
	for _, v := range views {
		for i, e := range v {
			if e != entry(i) {
				t.Fatalf("a compaction wrote into a %d-entry view: entry %d is %v, want %v", len(v), i, e, entry(i))
			}
		}
	}
	as := l.Active()
	if len(as.Device) != 1 || as.Device[0].Addr != 0x100 || len(as.Streams) != 1 || as.MaxStream != 1 {
		t.Fatalf("active set after churn: %+v", as)
	}
	if got := l.Entries(); got[0] != entry(0) || got[1] != entry(1) {
		t.Fatalf("log does not start with its live entries: %v", got[:2])
	}
}

// TestLogConcurrentCompaction: appenders on several goroutines drive
// the log through many compactions while another takes views and
// derives their active sets; every view stays a consistent log, and the
// final active set is exactly what the appenders left live.
func TestLogConcurrentCompaction(t *testing.T) {
	l := New()
	const writers, pairs = 4, 3 * compactFloor
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			v := l.View()
			if as := ActiveOf(v); len(as.Device) > writers*2 {
				readerDone <- fmt.Errorf("view of %d entries holds %d live buffers", len(v), len(as.Device))
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			live := uint64(w+1) << 32
			l.Append(Entry{Kind: KindMalloc, Size: 64, Addr: live})
			for i := 0; i < pairs; i++ {
				a := live + uint64(1+i%5)<<12
				l.Append(Entry{Kind: KindMalloc, Size: 8, Addr: a})
				l.Append(Entry{Kind: KindFree, Addr: a})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	as := l.Active()
	if len(as.Device) != writers {
		t.Fatalf("%d live buffers after the churn, want %d: %+v", len(as.Device), writers, as.Device)
	}
	if n := l.Len(); n > compactFloor {
		t.Fatalf("the log holds %d entries", n)
	}
}
