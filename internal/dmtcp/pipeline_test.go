package dmtcp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/addrspace"
)

// fillPattern writes deterministic, position-dependent bytes so shard
// reordering or misplacement shows up as a content mismatch.
func fillPattern(b []byte, seed uint64) {
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x >> 32)
	}
}

// buildBigSpace maps several upper-half regions of varying sizes (some
// much larger than the shard size used in the tests) plus lower-half
// noise that must never enter an image.
func buildBigSpace(t testing.TB, nRegions int) (*addrspace.Space, []addrspace.RegionInfo) {
	t.Helper()
	s := addrspace.New()
	if _, err := s.MMap(0, 4*addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfLower, "lower-noise"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRegions; i++ {
		pages := uint64(1 + (i*7)%13)
		length := pages * addrspace.PageSize
		start, err := s.MMap(0, length, addrspace.ProtRW, 0, addrspace.HalfUpper, fmt.Sprintf("r%d", i))
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, length)
		fillPattern(data, uint64(i))
		if err := s.WriteAt(start, data); err != nil {
			t.Fatal(err)
		}
	}
	return s, s.RegionsIn(addrspace.HalfUpper)
}

// snapshotRegions reads every region's bytes out of a space.
func snapshotRegions(t testing.TB, s *addrspace.Space, regions []addrspace.RegionInfo) [][]byte {
	t.Helper()
	out := make([][]byte, len(regions))
	for i, ri := range regions {
		out[i] = make([]byte, ri.Len)
		if err := s.ReadAt(ri.Start, out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sectionPlugin contributes sections sized to cross shard boundaries.
type sectionPlugin struct{ sizes []int }

func (p *sectionPlugin) Name() string { return "sections" }
func (p *sectionPlugin) Freeze(uint64, uint64, bool) (EmitFunc, uint64, error) {
	return func(_ context.Context, _ addrspace.View, s *SectionMap) error {
		for i, n := range p.sizes {
			b := make([]byte, n)
			fillPattern(b, uint64(100+i))
			s.Add(fmt.Sprintf("sec.%d", i), b)
		}
		return nil
	}, 0, nil
}
func (p *sectionPlugin) Resume() error                                    { return nil }
func (p *sectionPlugin) LazyRestart(context.Context, *LazyRestorer) error { return nil }

// fillPlugin emits its fill-only spans into every checkpoint.
type fillPlugin struct{ spans []FillSpan }

func (p *fillPlugin) Name() string { return "fills" }
func (p *fillPlugin) Freeze(uint64, uint64, bool) (EmitFunc, uint64, error) {
	return func(_ context.Context, _ addrspace.View, s *SectionMap) error {
		for _, sp := range p.spans {
			s.Fill(sp)
		}
		return nil
	}, 0, nil
}
func (p *fillPlugin) Resume() error                                    { return nil }
func (p *fillPlugin) LazyRestart(context.Context, *LazyRestorer) error { return nil }

// TestParallelSerialImagesIdentical: a standalone image is byte-identical for
// any worker count (shard plan depends only on shard size), and the
// restored memory is byte-identical to the original for both paths. The
// gzip=true row sets the retired gzip bit on that image: reading and
// restoring refuse it, and the restore maps nothing.
func TestParallelSerialImagesIdentical(t *testing.T) {
	for _, gz := range []bool{false, true} {
		t.Run(fmt.Sprintf("gzip=%v", gz), func(t *testing.T) {
			space, regions := buildBigSpace(t, 9)
			want := snapshotRegions(t, space, regions)

			checkpoint := func(workers int) []byte {
				e := NewEngine()
				e.Workers = workers
				e.ShardSize = 3 * addrspace.PageSize // force multi-shard regions
				e.Register(&sectionPlugin{sizes: []int{0, 17, 5 * addrspace.PageSize}})
				var img bytes.Buffer
				if _, err := e.Checkpoint(context.Background(), &img, space); err != nil {
					t.Fatal(err)
				}
				return img.Bytes()
			}
			serial := checkpoint(1)
			parallel := checkpoint(8)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("serial and parallel images differ: %d vs %d bytes", len(serial), len(parallel))
			}
			if gz {
				flagged := gzipFlagged(parallel)
				wantRefused(t, flagged)
				fresh := addrspace.New()
				if err := restoreImage(nil, flagged, fresh, 8); !errors.Is(err, ErrUnsupportedVersion) {
					t.Fatalf("restore = %v, want ErrUnsupportedVersion", err)
				}
				if n := len(fresh.RegionsIn(addrspace.HalfUpper)); n != 0 {
					t.Fatalf("a refused restore mapped %d regions", n)
				}
				return
			}

			for _, workers := range []int{1, 8} {
				img, err := ReadImage(bytes.NewReader(parallel))
				if err != nil {
					t.Fatal(err)
				}
				if !img.Unhashed || img.ID != 0 {
					t.Fatalf("standalone image meta = %+v", img.ImageMeta)
				}
				fresh := addrspace.New()
				if err := restoreImage(nil, parallel, fresh, workers); err != nil {
					t.Fatal(err)
				}
				got := snapshotRegions(t, fresh, regions)
				for i := range want {
					if !bytes.Equal(want[i], got[i]) {
						t.Fatalf("workers=%d: region %d differs after restore", workers, i)
					}
				}
				for i, n := range []int{0, 17, 5 * addrspace.PageSize} {
					sec, err := img.SectionBytes(fmt.Sprintf("sec.%d", i))
					if err != nil || len(sec) != n {
						t.Fatalf("section %d: %v, len=%d want %d", i, err, len(sec), n)
					}
					ref := make([]byte, n)
					fillPattern(ref, uint64(100+i))
					if !bytes.Equal(sec, ref) {
						t.Fatalf("section %d content differs", i)
					}
				}
			}
		})
	}
}

// retiredImage is img with its magic naming a retired format version
// ('1' or '2').
func retiredImage(img []byte, version byte) []byte {
	b := append([]byte(nil), img...)
	b[7] = version
	return b
}

// reflagged is img with its flag byte passed through edit and its
// trailer resealed, so the flags are its only defect.
func reflagged(img []byte, edit func(byte) byte) []byte {
	b := append([]byte(nil), img...)
	b[len(imageMagic)] = edit(b[len(imageMagic)])
	body := len(b) - trailerSize
	var h bodyHash
	h.Write(b[:body])
	binary.LittleEndian.PutUint64(b[body+16:], h.Sum64())
	return b
}

// gzipFlagged is img with flag bit 0 set: the retired gzip shard
// encoding.
func gzipFlagged(img []byte) []byte {
	return reflagged(img, func(f byte) byte { return f | flagGzipRetired })
}

// fnvHashed is chain image img as the retired FNV-1a shard hash wrote
// it: every shard's sum field restamped with FNV-1a 64 of its bytes,
// flagShardCRC clear, the trailer resealed.
func fnvHashed(tb testing.TB, img []byte) []byte {
	tb.Helper()
	ix, err := OpenShardIndex(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		tb.Fatal(err)
	}
	b := append([]byte(nil), img...)
	for _, sh := range ix.shards {
		h := fnv.New64a()
		h.Write(b[sh.fileOff : sh.fileOff+int64(sh.rawLen)])
		binary.LittleEndian.PutUint64(b[sh.fileOff-8:], h.Sum64()) // the header's last field
	}
	return reflagged(b, func(f byte) byte { return f &^ flagShardCRC })
}

// wantRefused fails unless every parser — the eager reader, the index
// scan, and the lineage header reader — refuses img as
// ErrUnsupportedVersion.
func wantRefused(t *testing.T, img []byte) {
	t.Helper()
	if _, err := ReadImage(bytes.NewReader(img)); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("ReadImage = %v, want ErrUnsupportedVersion", err)
	}
	if _, err := OpenShardIndex(bytes.NewReader(img), int64(len(img))); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("OpenShardIndex = %v, want ErrUnsupportedVersion", err)
	}
	if _, err := ReadImageMeta(bytes.NewReader(img)); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("ReadImageMeta = %v, want ErrUnsupportedVersion", err)
	}
}

// TestV1BackwardCompat: an image under the retired v1 version, with and
// without the retired gzip bit, is refused as ErrUnsupportedVersion by
// every parser.
func TestV1BackwardCompat(t *testing.T) {
	for _, gz := range []bool{false, true} {
		t.Run(fmt.Sprintf("gzip=%v", gz), func(t *testing.T) {
			space, _ := buildBigSpace(t, 5)
			e := NewEngine()
			e.Register(&sectionPlugin{sizes: []int{33}})
			var img bytes.Buffer
			if _, err := e.Checkpoint(context.Background(), &img, space); err != nil {
				t.Fatal(err)
			}
			b := img.Bytes()
			if gz {
				b = gzipFlagged(b)
			}
			wantRefused(t, retiredImage(b, '1'))
		})
	}
}

// TestV1V2SameRestoredState: images under either retired version are
// refused alike, and the restore leaves its target space untouched.
func TestV1V2SameRestoredState(t *testing.T) {
	space, _ := buildBigSpace(t, 6)
	var img bytes.Buffer
	if _, err := NewEngine().Checkpoint(context.Background(), &img, space); err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{'1', '2'} {
		fresh := addrspace.New()
		if err := restoreImage(nil, retiredImage(img.Bytes(), version), fresh, 0); !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("v%c restore = %v, want ErrUnsupportedVersion", version, err)
		}
		if n := len(fresh.RegionsIn(addrspace.HalfUpper)); n != 0 {
			t.Fatalf("v%c: a refused restore mapped %d regions", version, n)
		}
	}
}

// TestConcurrentCheckpoint exercises the pipeline under the race
// detector: several checkpoints of one space run concurrently with
// lower-half mutation (writes and mmap/munmap churn). Lower-half regions
// are not checkpointed, so all concurrent accesses are disjoint.
func TestConcurrentCheckpoint(t *testing.T) {
	space, _ := buildBigSpace(t, 8)
	scratch, err := space.MMap(0, 8*addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfLower, "scratch")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8*addrspace.PageSize)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fillPattern(buf, uint64(i))
			if err := space.WriteAt(scratch, buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a, err := space.MMap(0, addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfLower, "churn")
			if err != nil {
				t.Error(err)
				return
			}
			if err := space.MUnmap(a, addrspace.PageSize); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var images [4][]byte
	var ckpt sync.WaitGroup
	for i := range images {
		ckpt.Add(1)
		go func(i int) {
			defer ckpt.Done()
			e := NewEngine()
			e.ShardSize = 2 * addrspace.PageSize
			var img bytes.Buffer
			if _, err := e.Checkpoint(context.Background(), &img, space); err != nil {
				t.Error(err)
				return
			}
			images[i] = img.Bytes()
		}(i)
	}
	ckpt.Wait()
	close(stop)
	wg.Wait()

	// The upper half never changed, so every concurrent image is
	// identical and restores correctly.
	for i := 1; i < len(images); i++ {
		if !bytes.Equal(images[0], images[i]) {
			t.Fatalf("concurrent image %d differs", i)
		}
	}
	if err := restoreImage(nil, images[0], addrspace.New(), 0); err != nil {
		t.Fatal(err)
	}
}

// TestStatsDurations: write and hook time are attributed separately.
func TestStatsDurations(t *testing.T) {
	space, _ := buildBigSpace(t, 4)
	e := NewEngine()
	e.Register(&sectionPlugin{sizes: []int{1024}})
	st, err := e.Checkpoint(context.Background(), io.Discard, space)
	if err != nil {
		t.Fatal(err)
	}
	if st.WriteDuration <= 0 {
		t.Fatalf("WriteDuration = %v", st.WriteDuration)
	}
	if st.Duration < st.WriteDuration {
		t.Fatalf("Duration %v < WriteDuration %v", st.Duration, st.WriteDuration)
	}
	if st.Duration < st.WriteDuration+st.HookDuration {
		t.Fatalf("Duration %v < write %v + hooks %v", st.Duration, st.WriteDuration, st.HookDuration)
	}
}

// TestSectionWriterStreams: the streaming section API accumulates writes
// and publishes on Close.
func TestSectionWriterStreams(t *testing.T) {
	s := NewSectionMap()
	w := s.Writer("log", 4)
	if _, err := s.Bytes("log"); err == nil {
		t.Fatal("section visible before Close")
	}
	w.Write([]byte("abc"))
	w.Write([]byte("defgh"))
	w.Close()
	if got, err := s.Bytes("log"); err != nil || string(got) != "abcdefgh" {
		t.Fatalf("section = %q err=%v", got, err)
	}
}

// fuzzSeeds returns the seeds of the decoder fuzzers: eight images, each
// carrying a fill-only span — a standalone image, raw, with the retired
// gzip bit set and without flagSpanClass (the retired devmem2 format);
// a chain base; a chain delta, raw, gzip-flagged and without
// flagShardCRC; a standalone image with its trailer cut off — each
// whole and cut in half.
func fuzzSeeds(f *testing.F) [][]byte {
	space, regions := buildBigSpace(f, 3)
	lower := space.RegionsIn(addrspace.HalfLower)[0]
	engine := func() *Engine {
		e := NewEngine()
		e.ShardSize = 2 * addrspace.PageSize
		e.Register(&sectionPlugin{sizes: []int{100, 3000}})
		e.Register(&fillPlugin{spans: []FillSpan{{Addr: lower.Start + addrspace.PageSize, Len: 2 * addrspace.PageSize, Class: ClassDevice}}})
		return e
	}
	standalone := func() []byte {
		var img bytes.Buffer
		if _, err := engine().Checkpoint(context.Background(), &img, space); err != nil {
			f.Fatal(err)
		}
		return img.Bytes()
	}
	chain := func() (base, delta []byte) {
		e := engine()
		var b, d bytes.Buffer
		_, st, err := e.CheckpointDelta(context.Background(), &b, space, nil, "base")
		if err != nil {
			f.Fatal(err)
		}
		if err := space.WriteAt(regions[1].Start+addrspace.PageSize, []byte("dirty")); err != nil {
			f.Fatal(err)
		}
		if _, _, err := e.CheckpointDelta(context.Background(), &d, space, st, "delta"); err != nil {
			f.Fatal(err)
		}
		return b.Bytes(), d.Bytes()
	}
	raw := standalone()
	base, delta := chain()
	var seeds [][]byte
	classless := reflagged(raw, func(f byte) byte { return f &^ flagSpanClass })
	for _, img := range [][]byte{raw, gzipFlagged(raw), classless, base, delta, gzipFlagged(delta), fnvHashed(f, delta), raw[:len(raw)-trailerSize]} {
		seeds = append(seeds, img, img[:len(img)/2])
	}
	return seeds
}

// FuzzReadImage: the decoder must reject arbitrary mutations without
// panicking or over-allocating.
func FuzzReadImage(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ReadImage(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadImage) && !errors.Is(err, ErrCorruptImage) && !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		// A successfully read image is internally consistent: it verifies
		// again, and every span it carries reads back whole — a base or
		// standalone image its whole layout, a delta without its parent
		// exactly its own shards.
		if err := ix.Verify(); err != nil {
			t.Fatal(err)
		}
		for i, rd := range ix.Regions {
			buf := make([]byte, rd.Len)
			err := ix.readSpanRange(i, 0, buf, new(shardCache), func(uint64, []byte) error {
				if !ix.Delta {
					t.Fatalf("region %d: a full image left a gap", i)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("region %d: %v", i, err)
			}
		}
		for _, sec := range ix.Secs {
			if _, err := ix.SectionBytes(sec.Name); err != nil && !(ix.Delta && errors.Is(err, ErrDeltaChain)) {
				t.Fatalf("section %q: %v", sec.Name, err)
			}
		}
	})
}

// hostileCounts are chain headers whose counts promise far more entries
// than follow, each carrying one fill-only span: a base's 2^20 shards
// after a 70-byte header, 2^20 sections after 62 bytes, 2^20 regions
// after 58 (the span one of them), and a delta's 2^20 shards after 74
// bytes (also committed to the fuzz corpora).
func hostileCounts() map[string][]byte {
	le := binary.LittleEndian
	prologue := func(flags byte, parent string, depth uint32) []byte {
		b := append(append([]byte(nil), imageMagic[:]...), flags|flagSpanClass, 0, 0, 0)
		b = le.AppendUint16(b, uint16(len(parent)))
		b = le.AppendUint32(append(b, parent...), depth)
		return append(b, make([]byte, 16)...)
	}
	// One device fill-only span of a page: start, len, prot, class, label.
	fill := append(le.AppendUint64(le.AppendUint64(nil, 1<<40), addrspace.PageSize), 0, byte(ClassDevice), 0, 0)
	spans := func(p []byte, count uint32) []byte {
		return append(le.AppendUint32(append([]byte(nil), p...), count), fill...)
	}
	base := spans(prologue(flagShardCRC, "", 0), 1)
	shards := func(p []byte) []byte {
		return le.AppendUint32(le.AppendUint32(le.AppendUint32(append([]byte(nil), p...), 0), DefaultShardSize), 1<<20)
	}
	return map[string][]byte{
		"shards":       shards(base),
		"sections":     le.AppendUint32(append([]byte(nil), base...), 1<<20),
		"regions":      spans(prologue(flagShardCRC, "", 0), 1<<20),
		"delta shards": shards(spans(prologue(flagShardCRC|flagDelta, "base", 1), 1)),
	}
}

// TestReadImageAllocatesWhatArrives: a count claims nothing until its
// entries arrive, so neither ReadImage nor OpenShardIndex allocates for
// entries a short input never delivers.
func TestReadImageAllocatesWhatArrives(t *testing.T) {
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for name, b := range hostileCounts() {
		for entry, parse := range map[string]func() error{
			"ReadImage": func() error { _, err := ReadImage(bytes.NewReader(b)); return err },
			"OpenShardIndex": func() error {
				_, err := OpenShardIndex(bytes.NewReader(b), int64(len(b)))
				return err
			},
		} {
			var err error
			if n := allocated(func() { err = parse() }); n > 1<<20 {
				t.Errorf("%s of %d bytes claiming 2^20 %s allocated %d bytes", entry, len(b), name, n)
			}
			if !errors.Is(err, ErrBadImage) {
				t.Errorf("%s of %d bytes claiming 2^20 %s = %v, want ErrBadImage", entry, len(b), name, err)
			}
		}
	}
	// A store's size claim is not believed either: a whole read of 50
	// bytes claimed to be 1 TiB allocates one PrefetchChunk, not the
	// claim.
	b := hostileCounts()["shards"]
	var err error
	if n := allocated(func() { _, err = OpenShardIndexWhole(bytes.NewReader(b), 1<<40, 1<<40) }); n > 2*PrefetchChunk {
		t.Errorf("OpenShardIndexWhole of %d bytes claimed as 1 TiB allocated %d bytes", len(b), n)
	}
	if !errors.Is(err, ErrBadImage) {
		t.Errorf("OpenShardIndexWhole of %d bytes claimed as 1 TiB = %v, want ErrBadImage", len(b), err)
	}
}
