package dmtcp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// tracingReaderAt records every range read through it.
type tracingReaderAt struct {
	src io.ReaderAt
	mu  sync.Mutex
	got [][2]int64 // offset, length
}

func (r *tracingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.mu.Lock()
	r.got = append(r.got, [2]int64{off, int64(len(p))})
	r.mu.Unlock()
	return r.src.ReadAt(p, off)
}

// TestIndexScanReadsHeadersOnly: no read of an index scan may overlap a
// payload — of a standalone image (the v2 row, named before the single
// format), a chain base or a delta — and the prologue tables must still
// arrive in a handful of reads, not one per field. An image under the
// retired v1 version is refused after its first read.
func TestIndexScanReadsHeadersOnly(t *testing.T) {
	space := lazySpace(t)
	standalone := writeTestImage(t, space, func(e *Engine) { e.ShardSize = 64 << 10 }, false)
	images := map[string][]byte{"v1": retiredImage(standalone, '1'), "v2": standalone}
	images["v3-base"], images["v3-delta"], _ = chainImages(t, 64<<10)
	for name, img := range images {
		t.Run(name, func(t *testing.T) {
			src := &tracingReaderAt{src: bytes.NewReader(img)}
			ix, err := OpenShardIndex(src, int64(len(img)))
			if name == "v1" {
				if !errors.Is(err, ErrUnsupportedVersion) || len(src.got) != 1 {
					t.Fatalf("retired image: %v after %d reads, want ErrUnsupportedVersion after one", err, len(src.got))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ix.NumShards() == 0 {
				t.Fatal("image indexes no shards")
			}
			for _, rd := range src.got {
				for i := range ix.shards {
					sh := &ix.shards[i]
					if rd[0] < sh.fileOff+int64(sh.rawLen) && sh.fileOff < rd[0]+rd[1] {
						t.Fatalf("scan read %d+%d overlaps the payload at %d+%d", rd[0], rd[1], sh.fileOff, sh.rawLen)
					}
				}
			}
			// One read per header between payloads, plus a few for the
			// tables.
			if limit := ix.NumShards() + 12; len(src.got) > limit {
				t.Fatalf("scan took %d reads for %d headers, want <= %d", len(src.got), ix.NumShards(), limit)
			}
		})
	}
}

// TestSectionReaderDecodesEachShardOnce walks a section in small
// forward reads, the way the devmem2 header walk does: every shard
// touched is read from the source (and hash-verified) exactly once,
// untouched shards never, and the bytes are the section's.
func TestSectionReaderDecodesEachShardOnce(t *testing.T) {
	const shard = 16 << 10
	space := lazySpace(t)
	e := NewEngine()
	e.ShardSize = shard
	e.Register(&lazyTestPlugin{})
	var buf bytes.Buffer
	if _, _, err := e.CheckpointDelta(context.Background(), &buf, space, nil, "base"); err != nil {
		t.Fatal(err)
	}
	src := &tracingReaderAt{src: bytes.NewReader(buf.Bytes())}
	ix, err := OpenShardIndex(src, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.SectionBytes("test.payload")
	if err != nil {
		t.Fatal(err)
	}
	src.got = nil
	sr, err := ix.SectionReader("test.payload")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Size() != uint64(len(want)) {
		t.Fatalf("Size = %d, want %d", sr.Size(), len(want))
	}
	// Three 17-byte reads inside shard 0, one straddling shards 2|3,
	// one in the last shard; shard 1 and the rest stay untouched.
	last := (len(want) - 1) / shard
	for _, off := range []int{0, 100, shard - 17, 3*shard - 8, last*shard + 5} {
		got := make([]byte, 17)
		if n, err := sr.ReadAt(got, int64(off)); n != 17 || err != nil {
			t.Fatalf("ReadAt(%d) = (%d, %v)", off, n, err)
		}
		if !bytes.Equal(got, want[off:off+17]) {
			t.Fatalf("ReadAt(%d): wrong bytes", off)
		}
	}
	if len(src.got) != 4 {
		t.Fatalf("walk read the source %d times, want one per touched shard (4): %v", len(src.got), src.got)
	}
	// A read ending past the section returns what there is, with EOF.
	tail := make([]byte, 64)
	if n, err := sr.ReadAt(tail, int64(len(want)-10)); n != 10 || err != io.EOF || !bytes.Equal(tail[:10], want[len(want)-10:]) {
		t.Fatalf("ReadAt straddling the end = (%d, %v)", n, err)
	}
	// A flipped payload byte still fails the shard's hash on this path.
	bad := append([]byte(nil), buf.Bytes()...)
	si := ix.sectionIndex("test.payload")
	bad[ix.shards[ix.spans[len(ix.Regions)+si].shards[0]].fileOff+40] ^= 0xFF
	bix, err := OpenShardIndex(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err)
	}
	bsr, _ := bix.SectionReader("test.payload")
	if _, err := bsr.ReadAt(make([]byte, 17), 0); !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("ranged read of a corrupt shard: %v, want ErrCorruptImage", err)
	}
}

// failingReaderAt fails every read at or beyond failFrom once armed.
type failingReaderAt struct {
	src      io.ReaderAt
	failFrom int64
	armed    atomic.Bool
	failed   atomic.Int64
}

var errInjected = errors.New("injected read failure")

func (r *failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if r.armed.Load() && off >= r.failFrom {
		r.failed.Add(1)
		return 0, errInjected
	}
	return r.src.ReadAt(p, off)
}

// TestPrefetchWorkers drains one chain with one and with several drain
// workers drawing on a one-slot budget: the memory must come out the
// same as the live space, every shard decoded at most once; a read
// failure ends the drain with that error (not a cancellation), and a
// cancelled context ends it with the context's.
func TestPrefetchWorkers(t *testing.T) {
	const shard = 64 << 10
	base, delta, live := chainImages(t, shard)
	open := func(t *testing.T, baseSrc io.ReaderAt) []*ShardIndex {
		baseIx, err := OpenShardIndex(baseSrc, int64(len(base)))
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
		return []*ShardIndex{tip, baseIx}
	}
	for _, workers := range []int{1, 4} {
		chain := open(t, bytes.NewReader(base))
		space, r := lazyRestoreChain(t, chain)
		r.Workers, r.Budget = workers, NewWorkerBudget(1)
		if err := r.Prefetch(context.Background()); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if cold := space.ColdBytes(); cold != 0 {
			t.Fatalf("workers=%d: %d bytes cold after the drain", workers, cold)
		}
		decoded := r.ShardsDecoded()
		if max := int64(chain[0].NumShards() + chain[1].NumShards()); decoded > max {
			t.Fatalf("workers=%d: decoded %d shards of %d", workers, decoded, max)
		}
		for _, rd := range chain[0].Regions {
			want, got := make([]byte, rd.Len), make([]byte, rd.Len)
			if err := live.ReadAt(rd.Start, want); err != nil {
				t.Fatal(err)
			}
			if err := space.ReadAt(rd.Start, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("workers=%d: region %#x differs after the drain", workers, rd.Start)
			}
		}
		if r.ShardsDecoded() != decoded {
			t.Fatalf("workers=%d: reading drained memory decoded more shards", workers)
		}
	}

	t.Run("first error", func(t *testing.T) {
		src := &failingReaderAt{src: bytes.NewReader(base), failFrom: int64(len(base) / 2)}
		chain := open(t, src)
		space, r := lazyRestoreChain(t, chain)
		r.Workers = 4
		src.armed.Store(true)
		// readShard reports a failed source read as a truncated image.
		if err := r.Prefetch(context.Background()); !errors.Is(err, ErrBadImage) || src.failed.Load() == 0 {
			t.Fatalf("Prefetch = %v, want the injected read failure", err)
		}
		if space.ColdBytes() == 0 {
			t.Fatal("nothing left cold after a failed drain")
		}
		// The failure is not sticky: cold memory still materializes.
		src.armed.Store(false)
		if err := r.Prefetch(context.Background()); err != nil {
			t.Fatalf("second drain: %v", err)
		}
		if cold := space.ColdBytes(); cold != 0 {
			t.Fatalf("%d bytes cold after the second drain", cold)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		_, r := lazyRestoreChain(t, open(t, bytes.NewReader(base)))
		r.Workers = 4
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := r.Prefetch(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("Prefetch on a cancelled context = %v", err)
		}
	})
}
