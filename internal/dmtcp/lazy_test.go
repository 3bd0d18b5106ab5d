package dmtcp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/addrspace"
)

// lazySpace builds a space with a few upper-half regions of patterned
// content.
func lazySpace(t *testing.T) *addrspace.Space {
	t.Helper()
	space := addrspace.New()
	upper := space.UpperWindow().Start
	for i, n := range []uint64{3 * addrspace.PageSize, 1 << 20, 5 * addrspace.PageSize} {
		addr := upper + uint64(i)*(4<<20)
		if _, err := space.MMap(addr, n, addrspace.ProtRW, addrspace.MapFixedNoReplace,
			addrspace.HalfUpper, fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(uint64(i+1)*31 + uint64(j)*7)
		}
		if err := space.WriteAt(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	return space
}

// writeTestImage checkpoints space through a fresh engine: a chain base
// when chain is set, else a standalone image.
func writeTestImage(t *testing.T, space *addrspace.Space, mut func(e *Engine), chain bool) []byte {
	t.Helper()
	e := NewEngine()
	e.Register(&lazyTestPlugin{})
	if mut != nil {
		mut(e)
	}
	var buf bytes.Buffer
	if _, _, err := e.checkpointLive(nil, &buf, space, chain, nil, ""); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lazyTestPlugin contributes a deterministic payload section.
type lazyTestPlugin struct{}

func (p *lazyTestPlugin) Name() string { return "lazytest" }
func (p *lazyTestPlugin) Freeze(uint64, uint64, bool) (EmitFunc, uint64, error) {
	return func(_ context.Context, _ addrspace.View, sections *SectionMap) error {
		data := make([]byte, 3*DefaultShardSize/2)
		for i := range data {
			data[i] = byte(i*13 + 5)
		}
		sections.Add("test.payload", data)
		sections.Add("test.small", []byte("hello"))
		return nil
	}, 0, nil
}
func (p *lazyTestPlugin) Resume() error                                    { return nil }
func (p *lazyTestPlugin) LazyRestart(context.Context, *LazyRestorer) error { return nil }

// TestShardIndexSectionBytes checks an index read by offset returns the
// same section bytes and tables as ReadImage's verified in-memory one,
// for standalone images (the v2 rows, named before the single format)
// and a chain base; under the retired v1 version or the retired gzip
// bit both refuse the image alike.
func TestShardIndexSectionBytes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mut     func(e *Engine)
		chain   bool
		gz      bool
		retired byte
	}{
		{"v2", nil, false, false, 0},
		{"v2-gzip", nil, false, true, 0},
		{"v2-small-shards", func(e *Engine) { e.ShardSize = 64 << 10 }, false, false, 0},
		{"v3-base", nil, true, false, 0},
		{"v3-base-gzip", nil, true, true, 0},
		{"v1", nil, false, false, '1'},
		{"v1-gzip", nil, false, true, '1'},
	} {
		t.Run(tc.name, func(t *testing.T) {
			space := lazySpace(t)
			img := writeTestImage(t, space, tc.mut, tc.chain)
			if tc.gz {
				img = gzipFlagged(img)
			}
			if tc.retired != 0 {
				img = retiredImage(img, tc.retired)
			}
			if tc.gz || tc.retired != 0 {
				_, err := ReadImage(bytes.NewReader(img))
				_, ierr := OpenShardIndex(bytes.NewReader(img), int64(len(img)))
				if !errors.Is(err, ErrUnsupportedVersion) || !errors.Is(ierr, ErrUnsupportedVersion) {
					t.Fatalf("retired image: ReadImage = %v, OpenShardIndex = %v", err, ierr)
				}
				return
			}
			want, err := ReadImage(bytes.NewReader(img))
			if err != nil {
				t.Fatal(err)
			}
			ix, err := OpenShardIndex(bytes.NewReader(img), int64(len(img)))
			if err != nil {
				t.Fatal(err)
			}
			for _, sec := range want.Secs {
				name := sec.Name
				wantB, err := want.SectionBytes(name)
				if err != nil {
					t.Fatal(err)
				}
				gotB, err := ix.SectionBytes(name)
				if err != nil {
					t.Fatalf("SectionBytes(%s): %v", name, err)
				}
				if !bytes.Equal(wantB, gotB) {
					t.Fatalf("section %s differs (%d vs %d bytes)", name, len(wantB), len(gotB))
				}
			}
			if len(ix.Regions) != len(want.Regions) {
				t.Fatalf("regions %d != %d", len(ix.Regions), len(want.Regions))
			}
			for i, rd := range want.Regions {
				h := ix.Regions[i]
				if h.Start != rd.Start || h.Len != rd.Len || h.Prot != rd.Prot || h.Label != rd.Label {
					t.Fatalf("region %d header mismatch", i)
				}
			}
		})
	}
}

// TestShardIndexTruncated checks a shard truncated mid-body surfaces a
// decode error, not a hang or silent zeros.
func TestShardIndexTruncated(t *testing.T) {
	space := lazySpace(t)
	img := writeTestImage(t, space, nil, false)
	// The index scan reads only headers, so it may succeed on an image
	// whose final shard body is cut short; the decode must then fail.
	cut := img[:len(img)-512]
	ix, err := OpenShardIndex(bytes.NewReader(cut), int64(len(cut)))
	if err != nil {
		// The scan itself noticed the truncation: also acceptable.
		if !errors.Is(err, ErrBadImage) {
			t.Fatalf("scan error not ErrBadImage: %v", err)
		}
		return
	}
	var firstErr error
	for i := 0; i < ix.NumShards(); i++ {
		dst := make([]byte, ix.shards[i].rawLen)
		if err := ix.readShard(i, dst); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("no shard decode failed on a truncated image")
	}
	if !errors.Is(firstErr, ErrBadImage) {
		t.Fatalf("decode error not ErrBadImage: %v", firstErr)
	}
}

// chainImages writes a v3 base and one delta over a mutated space,
// returning both serialized images and the final space content probe.
func chainImages(t *testing.T, shard int) (base, delta []byte, space *addrspace.Space) {
	t.Helper()
	space = lazySpace(t)
	e := NewEngine()
	e.ShardSize = shard
	var baseBuf bytes.Buffer
	_, st, err := e.CheckpointDelta(context.Background(), &baseBuf, space, nil, "base")
	if err != nil {
		t.Fatal(err)
	}
	// Dirty a slice in the middle of region 1 (the 1 MiB one) and the
	// whole of region 2.
	regions := space.RegionsIn(addrspace.HalfUpper)
	mut := make([]byte, 3*addrspace.PageSize)
	for i := range mut {
		mut[i] = byte(0xA0 + i%7)
	}
	if err := space.WriteAt(regions[1].Start+200*1024, mut); err != nil {
		t.Fatal(err)
	}
	all2 := make([]byte, regions[2].Len)
	for i := range all2 {
		all2[i] = byte(0xC3 ^ i)
	}
	if err := space.WriteAt(regions[2].Start, all2); err != nil {
		t.Fatal(err)
	}
	var deltaBuf bytes.Buffer
	if _, _, err := e.CheckpointDelta(context.Background(), &deltaBuf, space, st, "delta"); err != nil {
		t.Fatal(err)
	}
	return baseBuf.Bytes(), deltaBuf.Bytes(), space
}

// lazyRestoreChain maps the tip's regions into a fresh space and
// installs a sealed restorer over the linked chain.
func lazyRestoreChain(t *testing.T, chain []*ShardIndex) (*addrspace.Space, *LazyRestorer) {
	t.Helper()
	space := addrspace.New()
	r, err := NewLazyRestorer(space, chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.MapRegions(); err != nil {
		t.Fatal(err)
	}
	space.BeginLazy(r.MaterializeRange)
	r.Seal()
	return space, r
}

// restoreImage runs the restart route over one self-contained image:
// index and verify it, map its regions into space, run e's restart
// hooks (when e is set), drain every plan with the given worker count,
// and uninstall the fault gate.
func restoreImage(e *Engine, data []byte, space *addrspace.Space, workers int) error {
	ix, err := OpenShardIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	if err := ix.VerifyTrailer(); err != nil {
		return err
	}
	r, err := NewLazyRestorer(space, []*ShardIndex{ix})
	if err != nil {
		return err
	}
	r.Workers = workers
	if err := r.MapRegions(); err != nil {
		return err
	}
	if e != nil {
		if err := e.RunLazyRestartHooks(context.Background(), r); err != nil {
			return err
		}
	}
	space.BeginLazy(r.MaterializeRange)
	r.Seal()
	if err := r.Prefetch(context.Background()); err != nil {
		return err
	}
	space.EndLazy()
	return nil
}

// TestLazyChainBaseOwnedShards checks per-shard chain resolution: a
// delta's clean shards materialize from the base, dirty ones from the
// delta, and the restored bytes equal the live space.
func TestLazyChainBaseOwnedShards(t *testing.T) {
	const shard = 64 << 10
	base, delta, live := chainImages(t, shard)
	baseIx, err := OpenShardIndex(bytes.NewReader(base), int64(len(base)))
	if err != nil {
		t.Fatal(err)
	}
	tip, err := OpenShardIndex(bytes.NewReader(delta), int64(len(delta)))
	if err != nil {
		t.Fatal(err)
	}
	if !tip.Delta || tip.Parent != "base" {
		t.Fatalf("tip lineage: delta=%v parent=%q", tip.Delta, tip.Parent)
	}
	if err := tip.SetParent(baseIx); err != nil {
		t.Fatal(err)
	}
	space, r := lazyRestoreChain(t, []*ShardIndex{tip, baseIx})
	for _, rd := range tip.Regions {
		want := make([]byte, rd.Len)
		if err := live.ReadAt(rd.Start, want); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, rd.Len)
		if err := space.ReadAt(rd.Start, got); err != nil {
			t.Fatalf("lazy read %#x: %v", rd.Start, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("region %#x differs after chain materialization", rd.Start)
		}
	}
	if space.ColdBytes() != 0 {
		t.Fatalf("%d bytes cold after full read", space.ColdBytes())
	}
	// Both images must have contributed: the delta carries fewer shards
	// than the read needed.
	if dec := r.ShardsDecoded(); dec <= int64(tip.NumShards()) {
		t.Fatalf("decoded %d shards, expected base shards beyond the delta's %d", dec, tip.NumShards())
	}
}

// TestLazyRestorerSingleFlight hammers one sealed restorer with
// concurrent faulting readers and a racing prefetcher: every shard
// must decode exactly once, and a second full read must decode
// nothing further.
func TestLazyRestorerSingleFlight(t *testing.T) {
	const shard = 64 << 10
	base, delta, live := chainImages(t, shard)
	baseIx, err := OpenShardIndex(bytes.NewReader(base), int64(len(base)))
	if err != nil {
		t.Fatal(err)
	}
	tip, err := OpenShardIndex(bytes.NewReader(delta), int64(len(delta)))
	if err != nil {
		t.Fatal(err)
	}
	if err := tip.SetParent(baseIx); err != nil {
		t.Fatal(err)
	}
	space, r := lazyRestoreChain(t, []*ShardIndex{tip, baseIx})

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := r.Prefetch(context.Background()); err != nil {
			errCh <- err
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 8192)
			for _, rd := range tip.Regions {
				for off := uint64(g * 512); off+8192 <= rd.Len; off += 8192 {
					if err := space.ReadAt(rd.Start+off, buf); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	decoded := r.ShardsDecoded()
	maxShards := int64(tip.NumShards() + baseIx.NumShards())
	if decoded > maxShards {
		t.Fatalf("decoded %d shards with only %d in the chain: single-flight broken", decoded, maxShards)
	}
	// A second full read hits only warm pages: no further decodes.
	for _, rd := range tip.Regions {
		buf := make([]byte, rd.Len)
		if err := space.ReadAt(rd.Start, buf); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, rd.Len)
		if err := live.ReadAt(rd.Start, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, buf) {
			t.Fatalf("region %#x differs under concurrent fault+prefetch", rd.Start)
		}
	}
	if r.ShardsDecoded() != decoded {
		t.Fatalf("re-read decoded %d more shards", r.ShardsDecoded()-decoded)
	}
}

// FuzzOpenShardIndex feeds the index scanner — the only parser every
// restart runs over stored bytes — arbitrary images. It must fail with
// a classified error, never panic, and never index a shard outside its
// source or its span; whatever it accepts must verify and decode
// without panicking. Seeds: see fuzzSeeds.
func FuzzOpenShardIndex(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Read by offset, then held in memory (the waited restart's way).
		whole := func(src io.ReaderAt, size int64) (*ShardIndex, error) {
			return OpenShardIndexWhole(src, size, PrefetchChunk)
		}
		for _, open := range []func(io.ReaderAt, int64) (*ShardIndex, error){OpenShardIndex, whole} {
			ix, err := open(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				if !errors.Is(err, ErrBadImage) && !errors.Is(err, ErrUnsupportedVersion) &&
					!errors.Is(err, ErrCorruptImage) {
					t.Fatalf("unclassified scan error: %v", err)
				}
				return
			}
			if ix.bodyLen > ix.size {
				t.Fatalf("body ends at %d of a %d-byte image", ix.bodyLen, ix.size)
			}
			if err := ix.VerifyTrailer(); err != nil && !errors.Is(err, ErrCorruptImage) {
				t.Fatalf("unclassified trailer error: %v", err)
			}
			for i := range ix.shards {
				sh := &ix.shards[i]
				if sh.fileOff < 0 || sh.fileOff+int64(sh.rawLen) > ix.bodyLen {
					t.Fatalf("shard %d: payload %d+%d outside the %d-byte body", i, sh.fileOff, sh.rawLen, ix.bodyLen)
				}
				if sh.off+uint64(sh.rawLen) > ix.spans[sh.span].size {
					t.Fatalf("shard %d: %d+%d outside its %d-byte span", i, sh.off, sh.rawLen, ix.spans[sh.span].size)
				}
				if sh.rawLen <= 1<<20 { // a hostile frame may claim up to 1 GiB
					ix.readShard(i, make([]byte, sh.rawLen))
					ix.shardView(i)
				}
			}
		}
	})
}
