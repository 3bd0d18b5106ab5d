package crac

// Device memory travels into an image by reference: the plugin names
// each active allocation's range, and the write pipeline reads it
// through the checkpoint's snapshot straight into its shard staging.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/addrspace"
)

// TestCheckpointAllocationBounded: a checkpoint of a bulk_full-shaped
// session (16 × 4 MiB device, 4 × 1 MiB host buffers) stages its
// payload in the pipeline's pooled shard buffers, so its Go heap
// allocation stays a small fraction of the 68 MiB it writes.
func TestCheckpointAllocationBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled shard buffers")
	}
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	for i := 0; i < 16; i++ {
		d, err := rt.Malloc(4 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Memset(d, byte(i+1), 4<<20); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		h, err := rt.HostAlloc(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Memset(h, byte(0x80+i), 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, err := s.Checkpoint(ctx, io.Discard); err != nil { // warm the pools
		t.Fatal(err)
	}
	const rounds = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := s.Checkpoint(ctx, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("one 68 MiB checkpoint allocated %.2f MiB", per/(1<<20))
	if per >= 8<<20 {
		t.Fatalf("a checkpoint allocated %.1f MiB, want < 8 MiB", per/(1<<20))
	}
}

// TestReferencePiecesUnderCopyOnWrite: device allocations whose sizes
// are not page multiples share pages with their neighbours, so their
// fill-only spans start mid-page and their 64 KiB shards end mid-page:
// one page can feed two shards.
// Every device page is rewritten after the cut and before the write;
// the image must still equal the live-view reference at the cut, and
// no copy-on-write page may outlive the checkpoint.
func TestReferencePiecesUnderCopyOnWrite(t *testing.T) {
	sizes := []uint64{70001, 100003, 3*addrspace.PageSize + 17, 65536 + 1234, 777, 200000}
	for _, incremental := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("chain=%v/workers=%d", incremental, workers), func(t *testing.T) {
				opts := []Option{WithShardSize(64 << 10), WithWorkers(workers)}
				if incremental {
					opts = append(opts, WithIncremental(4))
				}
				build := func() (*Session, []uint64) {
					s, err := New(opts...)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(s.Close)
					var devs []uint64
					for i, n := range sizes {
						d, err := s.Runtime().Malloc(n)
						if err != nil {
							t.Fatal(err)
						}
						data := make([]byte, n)
						for j := range data {
							data[j] = byte(j*7 + i*31 + 1)
						}
						if err := s.Space().WriteAt(d, data); err != nil {
							t.Fatal(err)
						}
						devs = append(devs, d)
					}
					return s, devs
				}
				a, devs := build()
				b, _ := build()

				store := NewMemStore()
				gs := newGateStore(store)
				done := make(chan error, 1)
				go func() {
					_, err := a.CheckpointTo(context.Background(), gs, "img")
					done <- err
				}()
				<-gs.entered // the cut is taken; nothing is written yet
				for i, d := range devs {
					if err := a.Runtime().Memset(d, byte(0xA0+i), sizes[i]); err != nil {
						t.Fatal(err)
					}
				}
				close(gs.release)
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				if n := a.Space().RetainedPages(); n != 0 {
					t.Fatalf("%d copy-on-write pages outlived the checkpoint", n)
				}
				got := storeImageBytes(t, store, "img")
				want := liveViewReference(t, b, "img")
				if !bytes.Equal(got, want) {
					t.Fatalf("image differs from the live-view reference at the cut (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}
