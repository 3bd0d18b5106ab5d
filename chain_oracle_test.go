package crac

// The chain-resolver oracle: seeded workloads build delta chains of
// every shape the writer produces, in every store layering, and the
// readers that resolve a chain through the shard-index walk must agree
// with a standalone checkpoint taken at the tip's cut — OpenImageFrom
// (invariant 8) and a restart from the base Compact writes (invariant
// 13). The gzip rows also set the retired gzip flag bit on one middle
// member, which every resolver must refuse.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/addrspace"
)

// oracleCase is one generated chain shape; the workload itself derives
// from seed.
type oracleCase struct {
	seed  int64
	depth int  // deltas after the base
	gzip  bool // also check a chain with a gzip-flagged member is refused
	shard int
}

func (c oracleCase) String() string {
	return fmt.Sprintf("seed=%d/depth=%d/gzip=%v/shard=%dK", c.seed, c.depth, c.gzip, c.shard>>10)
}

// oracleCases spans depth 1–15, 64 KiB and 256 KiB shards; every
// other case also checks the retired gzip bit.
func oracleCases() []oracleCase {
	var out []oracleCase
	for i, depth := range []int{1, 15, 4, 9, 2, 12, 7, 15} {
		out = append(out, oracleCase{seed: int64(101 + i), depth: depth, gzip: i%2 == 1, shard: []int{64 << 10, 256 << 10}[i/2%2]})
	}
	return out
}

// oracleStores are the layerings each chain is built in: a plain store,
// a CASStore over it, and a CASStore over a loopback HTTPStore.
func oracleStores(t *testing.T) map[string]Store {
	srv := httptest.NewServer(ServeStore(NewMemStore()))
	t.Cleanup(srv.Close)
	hs, err := NewHTTPStore(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":      NewMemStore(),
		"cas":      NewCASStore(NewMemStore()),
		"cas-http": NewCASStore(hs),
	}
}

// oracleBuf is one live allocation of the generated workload.
type oracleBuf struct {
	addr, size uint64
	kind       int // oracleDevice, oraclePinned, oracleManaged, oracleHost
}

const (
	oracleDevice = iota
	oraclePinned
	oracleManaged
	oracleHost
	oracleKinds
)

// buildOracleChain checkpoints a seeded workload into store as a base
// and c.depth deltas, and returns the tip's name and a standalone image
// of the same cut. Between checkpoints the workload writes random
// ranges of its buffers; frees device, pinned, managed and host
// allocations and allocates new ones; and maps, writes and partly
// unmaps upper-half regions.
func buildOracleChain(t *testing.T, c oracleCase, store Store) (string, []byte) {
	t.Helper()
	ctx := context.Background()
	s, err := New(WithShardSize(c.shard), WithIncremental(c.depth))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt, space := s.Runtime(), s.Space()
	rng := rand.New(rand.NewSource(c.seed))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
	var live []oracleBuf
	alloc := func(kind int) {
		size := uint64(1+rng.Intn(48)) * addrspace.PageSize
		var addr uint64
		var err error
		switch kind {
		case oracleDevice:
			addr, err = rt.Malloc(size)
		case oraclePinned:
			addr, err = rt.MallocHost(size)
		case oracleManaged:
			addr, err = rt.MallocManaged(size)
		default:
			addr, err = rt.HostAlloc(size)
		}
		must(err)
		must(rt.Memset(addr, byte(rng.Intn(256)), size))
		live = append(live, oracleBuf{addr, size, kind})
	}
	free := func(i int) {
		b := live[i]
		if b.kind == oraclePinned || b.kind == oracleHost {
			must(rt.FreeHost(b.addr))
		} else {
			must(rt.Free(b.addr))
		}
		live = append(live[:i], live[i+1:]...)
	}
	var mapped []addrspace.Span
	for i := 0; i < 2*oracleKinds; i++ {
		alloc(i % oracleKinds)
	}

	tip := ""
	for gen := 0; gen <= c.depth; gen++ {
		if gen > 0 {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				b := live[rng.Intn(len(live))]
				off := uint64(rng.Intn(int(b.size)))
				n := 1 + uint64(rng.Intn(int(b.size-off)))
				must(rt.Memset(b.addr+off, byte(rng.Intn(256)), n))
			}
			if rng.Intn(3) == 0 {
				kind := live[rng.Intn(len(live))].kind
				for i, b := range live {
					if b.kind == kind {
						free(i)
						break
					}
				}
				alloc(kind)
			}
			if rng.Intn(3) == 0 {
				n := uint64(2+rng.Intn(16)) * addrspace.PageSize
				addr, err := space.MMap(0, n, addrspace.ProtRW, 0, addrspace.HalfUpper, "oracle")
				must(err)
				data := make([]byte, n)
				rng.Read(data)
				must(space.WriteAt(addr, data))
				mapped = append(mapped, addrspace.Span{Off: addr, Len: n})
			}
			if len(mapped) > 0 && rng.Intn(3) == 0 {
				m := &mapped[rng.Intn(len(mapped))]
				if m.Len >= 2*addrspace.PageSize {
					// Unmap the upper part: the region shrinks mid-chain.
					keep := uint64(1+rng.Intn(int(m.Len/addrspace.PageSize)-1)) * addrspace.PageSize
					must(space.MUnmap(m.Off+keep, m.Len-keep))
					m.Len = keep
				}
			}
		}
		tip = fmt.Sprintf("gen%02d", gen)
		st, err := s.CheckpointTo(ctx, store, tip)
		must(err)
		if st.Delta != (gen > 0) {
			t.Fatalf("%v: checkpoint %d delta=%v", c, gen, st.Delta)
		}
	}
	var ref bytes.Buffer
	_, err = s.Checkpoint(ctx, &ref)
	must(err)
	return tip, ref.Bytes()
}

// sameImageContent fails unless got lists ref's regions and sections
// and every section reads back the same bytes.
func sameImageContent(t *testing.T, c oracleCase, what string, got, ref *Image) {
	t.Helper()
	gi, ri := got.Info(), ref.Info()
	if !gi.Materialized {
		t.Fatalf("%v: %s is not resolved", c, what)
	}
	if !reflect.DeepEqual(gi.Regions, ri.Regions) {
		t.Fatalf("%v: %s regions %+v, standalone %+v", c, what, gi.Regions, ri.Regions)
	}
	if !reflect.DeepEqual(gi.Sections, ri.Sections) {
		t.Fatalf("%v: %s sections %+v, standalone %+v", c, what, gi.Sections, ri.Sections)
	}
	for _, sec := range ri.Sections {
		gb, gok := got.Section(sec.Name)
		rb, rok := ref.Section(sec.Name)
		if !gok || !rok || !bytes.Equal(gb, rb) {
			t.Fatalf("%v: %s section %s differs from the standalone image", c, what, sec.Name)
		}
	}
}

// checkGzipMemberRefused sets the retired gzip flag bit on the chain's
// first delta: opening, verifying and restoring the tip must each
// report ErrUnsupportedVersion. The member's bytes are put back after.
func checkGzipMemberRefused(t *testing.T, c oracleCase, store Store, tip string) {
	t.Helper()
	ctx := context.Background()
	const member = "gen01"
	orig := conformGet(t, store, member)
	putBytes(t, store, member, gzipFlagged(orig))
	defer putBytes(t, store, member, orig)
	if _, err := OpenImageFrom(ctx, store, tip); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("%v: OpenImageFrom over a gzip-flagged member = %v", c, err)
	}
	if _, err := VerifyChain(ctx, store, tip); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("%v: VerifyChain over a gzip-flagged member = %v", c, err)
	}
	if _, err := RestoreFrom(ctx, store, tip); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("%v: RestoreFrom over a gzip-flagged member = %v", c, err)
	}
}

// TestChainResolverOracle: for every generated chain in every store,
// OpenImageFrom(tip) reads back exactly what a standalone checkpoint
// at the same cut holds (invariant 8), and after Compact(tip) the base
// opens the same way and a restart from it restores the same memory
// (invariant 13).
func TestChainResolverOracle(t *testing.T) {
	ctx := context.Background()
	for _, c := range oracleCases() {
		for kind, store := range oracleStores(t) {
			t.Run(c.String()+"/"+kind, func(t *testing.T) {
				tip, ref := buildOracleChain(t, c, store)
				refImg, err := OpenImage(bytes.NewReader(ref))
				if err != nil {
					t.Fatal(err)
				}
				img, err := OpenImageFrom(ctx, store, tip)
				if err != nil {
					t.Fatalf("%v: OpenImageFrom: %v", c, err)
				}
				sameImageContent(t, c, "the resolved chain", img, refImg)
				if c.gzip {
					checkGzipMemberRefused(t, c, store, tip)
				}

				st, err := Compact(ctx, store, tip)
				if err != nil || st.Depth != c.depth {
					t.Fatalf("%v: Compact = %+v, %v", c, st, err)
				}
				base, err := OpenImageFrom(ctx, store, tip)
				if err != nil {
					t.Fatalf("%v: opening the compacted base: %v", c, err)
				}
				if info := base.Info(); info.Delta {
					t.Fatalf("%v: the compacted tip is still a delta: %+v", c, info)
				}
				sameImageContent(t, c, "the compacted base", base, refImg)

				fromBase, err := RestoreFrom(ctx, store, tip)
				if err != nil {
					t.Fatalf("%v: restoring the compacted base: %v", c, err)
				}
				defer fromBase.Close()
				fromRef, err := Restore(ctx, bytes.NewReader(ref))
				if err != nil {
					t.Fatal(err)
				}
				defer fromRef.Close()
				if got, want := snapshotRegions(t, fromBase), snapshotRegions(t, fromRef); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v: memory restored from the compacted base differs from the standalone image's", c)
				}
			})
		}
	}
}
