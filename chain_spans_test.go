package crac

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/uvm"
)

// TestChainFillSpanRules is the safety net under the delta rules for
// fill-only spans (active-malloc memory): for each shape, a chain base
// and one delta whose fill-only shards the rules must not skip, the tip
// reads back (OpenImageFrom) and restores (RestoreFrom) byte-identically
// to a standalone checkpoint at the same cut.
//
//   - carved-after-cut: an allocation carved after the parent's cut from
//     an already-mapped arena chunk, over stale bytes, and never written:
//     its pages are clean, but the parent's span table does not cover it;
//   - reissued-larger: an allocation freed and re-issued at the same
//     address with a different size: the grown tail is clean stale bytes
//     the parent's span does not cover;
//   - device-touched-managed: a managed range the device touched between
//     the two cuts with no host write. The simulated device writes
//     through the stamped host copy, so bytes alone cannot tell; the delta
//     must carry the range all the same, as CRAC cannot trust the host
//     copy of a page the GPU holds;
//   - chunk-grown: an arena chunk grown after the cut.
func TestChainFillSpanRules(t *testing.T) {
	const shard = 64 << 10
	cases := []struct {
		name string
		// setup runs before the base, step between base and delta; step
		// returns how many fill-only bytes the delta must carry at least.
		setup func(t *testing.T, s *Session) (any, error)
		step  func(t *testing.T, s *Session, st any) (uint64, error)
	}{
		{"carved-after-cut",
			func(t *testing.T, s *Session) (any, error) {
				rt := s.Runtime()
				if _, err := rt.Malloc(shard); err != nil { // keeps the chunk mapped
					return nil, err
				}
				stale, err := rt.Malloc(shard)
				if err == nil {
					err = rt.Memset(stale, 0xAB, shard)
				}
				if err == nil {
					err = rt.Free(stale)
				}
				return nil, err
			},
			func(t *testing.T, s *Session, _ any) (uint64, error) {
				_, err := s.Runtime().Malloc(shard / 2) // over the stale bytes, never written
				return shard / 2, err
			}},
		{"reissued-larger",
			func(t *testing.T, s *Session) (any, error) {
				rt := s.Runtime()
				if _, err := rt.Malloc(shard); err != nil {
					return nil, err
				}
				x, err := rt.Malloc(2 * shard)
				if err == nil {
					err = rt.Memset(x, 0xCD, 2*shard)
				}
				if err == nil {
					err = rt.Free(x)
				}
				var a uint64
				if err == nil {
					a, err = rt.Malloc(shard / 2)
				}
				if err == nil {
					err = rt.Memset(a, 0x5A, shard/2)
				}
				return a, err
			},
			func(t *testing.T, s *Session, st any) (uint64, error) {
				rt := s.Runtime()
				a := st.(uint64)
				if err := rt.Free(a); err != nil {
					return 0, err
				}
				b, err := rt.Malloc(shard + shard/2)
				if err == nil && b != a {
					t.Fatalf("test premise: re-issue landed at %#x, not %#x", b, a)
				}
				return shard, err
			}},
		{"device-touched-managed",
			func(t *testing.T, s *Session) (any, error) {
				m, err := s.Runtime().MallocManaged(shard)
				if err == nil {
					err = s.Runtime().Memset(m, 0x3C, shard)
				}
				return m, err
			},
			func(t *testing.T, s *Session, st any) (uint64, error) {
				return shard, s.Library().MemPrefetch(st.(uint64), shard, uvm.Device)
			}},
		{"chunk-grown",
			func(t *testing.T, s *Session) (any, error) {
				d, err := s.Runtime().Malloc(shard)
				if err == nil {
					err = s.Runtime().Memset(d, 0x11, shard)
				}
				return nil, err
			},
			func(t *testing.T, s *Session, _ any) (uint64, error) {
				before := len(s.Space().RegionsIn(addrspace.HalfLower))
				big, err := s.Runtime().Malloc(32 << 20) // beyond any chunk mapped so far
				if err != nil {
					return 0, err
				}
				if len(s.Space().RegionsIn(addrspace.HalfLower)) == before {
					t.Fatal("test premise: the allocation did not grow a chunk")
				}
				return shard, s.Runtime().Memset(big+5*shard, 0x77, 100)
			}},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(WithShardSize(shard), WithIncremental(4))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			state, err := c.setup(t, s)
			if err != nil {
				t.Fatal(err)
			}
			store := NewMemStore()
			if _, err := s.CheckpointTo(ctx, store, "base"); err != nil {
				t.Fatal(err)
			}
			least, err := c.step(t, s, state)
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.CheckpointTo(ctx, store, "tip")
			if err != nil {
				t.Fatal(err)
			}
			if !st.Delta || st.PayloadWritten < least {
				t.Fatalf("delta: %+v; want a delta carrying at least %d bytes", st, least)
			}
			var ref bytes.Buffer
			if _, err := s.Checkpoint(ctx, &ref); err != nil {
				t.Fatal(err)
			}
			refImg, err := OpenImage(bytes.NewReader(ref.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			img, err := OpenImageFrom(ctx, store, "tip")
			if err != nil {
				t.Fatalf("OpenImageFrom: %v", err)
			}
			sameImageContent(t, caseName(c.name), "the resolved chain", img, refImg)

			fromTip, err := RestoreFrom(ctx, store, "tip")
			if err != nil {
				t.Fatalf("restoring the tip: %v", err)
			}
			defer fromTip.Close()
			fromRef, err := Restore(ctx, bytes.NewReader(ref.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			defer fromRef.Close()
			if got, want := snapshotRegions(t, fromTip), snapshotRegions(t, fromRef); !reflect.DeepEqual(got, want) {
				t.Fatal("memory restored from the chain differs from the standalone image's")
			}
		})
	}
}

// caseName labels a test case in sameImageContent's messages.
type caseName string

func (n caseName) String() string { return string(n) }
