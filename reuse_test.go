package crac

import (
	"bytes"
	"context"
	"runtime"
	"testing"
)

// TestWaitedRestartReusesArenaBacking: a waited restart takes over the
// arena chunks the teardown unmapped instead of allocating a fresh
// arena footprint, and what it takes reads as fresh memory. Bytes the
// old incarnation wrote to memory it freed, and bytes the restore
// itself filled into an allocation freed since, are zero after the
// next restart.
func TestWaitedRestartReusesArenaBacking(t *testing.T) {
	ctx := context.Background()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	const size = 256 << 10
	keep, err := rt.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := rt.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(addr uint64, b byte) {
		t.Helper()
		if err := s.Space().WriteAt(addr, bytes.Repeat([]byte{b}, size)); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(what string, addr uint64, b byte) {
		t.Helper()
		got := make([]byte, size)
		if err := s.Space().ReadAt(addr, got); err != nil {
			t.Fatal(err)
		}
		for i, g := range got {
			if g != b {
				t.Fatalf("%s: byte %d reads %#x, want %#x", what, i, g, b)
			}
		}
	}
	fill(keep, 0xab)
	fill(gone, 0xcd)
	if err := rt.Free(gone); err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	if _, err := s.CheckpointTo(ctx, store, "img"); err != nil {
		t.Fatal(err)
	}

	restart := func(name string) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.RestartFrom(ctx, store, name); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		// The default device arena grows by 16 MiB: a restart that
		// allocated its own arena would account for at least that.
		if n := after.TotalAlloc - before.TotalAlloc; n > 8<<20 {
			t.Fatalf("restart from %s allocated %d bytes: a fresh arena footprint", name, n)
		}
	}
	for round := 0; round < 3; round++ {
		fill(gone, 0xee) // freed memory, scribbled behind the allocator's back
		restart("img")
		expect("live allocation", keep, 0xab)
		expect("freed allocation", gone, 0)
	}

	// keep was filled by the restore; once freed and checkpointed
	// without it, the next restart hands its backing out wiped.
	if err := rt.Free(keep); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointTo(ctx, store, "img2"); err != nil {
		t.Fatal(err)
	}
	restart("img2")
	expect("allocation the restore filled, freed since", keep, 0)
}
