package crac

// What the chain readers cost: the bytes each fetches per member, and
// what Compact allocates to squash a large chain.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dmtcp"
)

// TestChainReadersReadEachMemberOnce counts what OpenImageFrom,
// VerifyChain and Compact fetch of a depth-15 chain whose base is
// larger than one read request (dmtcp.PrefetchChunk) and whose deltas
// are smaller. OpenImageFrom and VerifyChain read every member once.
// Compact reads the tip's header, then resolves the chain as a waited
// restart does: a member of at most PrefetchChunk bytes is read once,
// in one request; a larger one gets its trailer pass plus the shards
// the new base takes from it, so at most twice.
func TestChainReadersReadEachMemberOnce(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	s, err := New(WithShardSize(64<<10), WithIncremental(15))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// An upper-half buffer: deltas carry its dirty shards only.
	d, err := s.Runtime().HostAlloc(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i <= 15; i++ {
		names = append(names, fmt.Sprintf("gen%02d", i))
	}
	buildChain(t, s, d, store, names...)
	tip := names[len(names)-1]
	size := map[string]int64{}
	for _, name := range names {
		size[name] = int64(len(conformGet(t, store.MemStore, name)))
	}
	if size[names[0]] <= dmtcp.PrefetchChunk || size[tip] > dmtcp.PrefetchChunk {
		t.Fatalf("base %d and tip %d bytes: want the base above one request and the deltas below", size[names[0]], size[tip])
	}
	check := func(reader string, limit func(name string) int64) {
		t.Helper()
		for _, name := range names {
			if got := store.bytes[name]; got == 0 || got > limit(name) {
				t.Errorf("%s read %d bytes of the %d-byte %s, want 1..%d", reader, got, size[name], name, limit(name))
			}
		}
	}

	store.reset()
	if _, err := OpenImageFrom(ctx, store, tip); err != nil {
		t.Fatal(err)
	}
	check("OpenImageFrom", func(name string) int64 { return size[name] })

	store.reset()
	if _, err := VerifyChain(ctx, store, tip); err != nil {
		t.Fatal(err)
	}
	check("VerifyChain", func(name string) int64 { return size[name] })

	meta, err := dmtcp.ReadImageMeta(bytes.NewReader(conformGet(t, store.MemStore, tip)))
	if err != nil {
		t.Fatal(err)
	}
	store.reset()
	if _, err := Compact(ctx, store, tip); err != nil {
		t.Fatal(err)
	}
	check("Compact", func(name string) int64 {
		n := size[name]
		if n > dmtcp.PrefetchChunk {
			n *= 2
		}
		if name == tip {
			n += int64(8 + 4 + 2 + len(meta.Parent) + 20) // the lineage header read
		}
		return n
	})
}

// TestCompactAllocationBounded: Compact streams the new base shard by
// shard from the linked index chain, so squashing a chain shaped like
// the benchmark's sparse_chain — ~66 MiB live in 2 MiB buffers (16 host,
// 16 device, 1 managed), 256 KiB shards, 3% dirtied per step, depth 15 —
// held in a DirStore allocates less than 8 MiB (32 MiB under the race
// detector, whose sync.Pool drops staging buffers on purpose): device
// memory streams by address like every other span, and only the small
// sections are held whole.
func TestCompactAllocationBounded(t *testing.T) {
	ctx := context.Background()
	store, err := NewDirStore(t.TempDir(), 0, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithShardSize(256<<10), WithIncremental(15))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	rng := rand.New(rand.NewSource(1))
	const bufSize = 2 << 20
	var bufs []uint64
	for _, alloc := range []struct {
		n int
		f func(uint64) (uint64, error)
	}{{16, rt.HostAlloc}, {16, rt.Malloc}, {1, rt.MallocManaged}} {
		for i := 0; i < alloc.n; i++ {
			b, err := alloc.f(bufSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Memset(b, byte(rng.Intn(256)), bufSize); err != nil {
				t.Fatal(err)
			}
			bufs = append(bufs, b)
		}
	}
	tip := ""
	for gen := 0; gen <= 15; gen++ {
		for k := 0; gen > 0 && k < 8; k++ {
			off := uint64(rng.Intn(bufSize/(256<<10))) * (256 << 10)
			if err := rt.Memset(bufs[rng.Intn(len(bufs))]+off, byte(rng.Intn(256)), 256<<10); err != nil {
				t.Fatal(err)
			}
		}
		tip = fmt.Sprintf("gen%02d", gen)
		if _, err := s.CheckpointTo(ctx, store, tip); err != nil {
			t.Fatal(err)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Compact(ctx, store, tip); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Compact of a depth-15, %d MiB chain allocated %.1f MiB", len(bufs)*bufSize>>20, float64(alloc)/(1<<20))
	limit := uint64(8 << 20)
	if raceEnabled {
		limit = 32 << 20
	}
	if alloc >= limit {
		t.Fatalf("Compact allocated %.1f MiB, want < %d MiB", float64(alloc)/(1<<20), limit>>20)
	}
}
