package cas

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/dmtcp"
)

// chunkMap is a test sink collecting chunks by name.
type chunkMap map[string][]byte

func (m chunkMap) sink(name string, buf *[]byte, n int) error {
	if _, ok := m[name]; !ok {
		m[name] = append([]byte(nil), (*buf)[:n]...)
	}
	ReleaseBuf(buf)
	return nil
}

// reconstruct reassembles the original stream from a manifest and its
// chunks.
func reconstruct(t *testing.T, man *Manifest, chunks chunkMap) []byte {
	t.Helper()
	var out bytes.Buffer
	for i := range man.Segments {
		seg := &man.Segments[i]
		if !seg.IsChunk() {
			out.Write(seg.Inline)
			continue
		}
		data, ok := chunks[seg.ChunkName()]
		if !ok {
			t.Fatalf("segment %d references missing chunk %s", i, seg.ChunkName())
		}
		if uint64(len(data)) != seg.Length {
			t.Fatalf("segment %d: chunk is %d bytes, manifest says %d", i, len(data), seg.Length)
		}
		out.Write(data)
	}
	return out.Bytes()
}

// feed writes data into w in irregular slice sizes, exercising token
// reassembly across Write boundaries.
func feed(t *testing.T, w *Chunker, data []byte) {
	t.Helper()
	sizes := []int{1, 7, 13, 64, 1000, 4096, 1 << 17}
	for i, off := 0, 0; off < len(data); i++ {
		n := sizes[i%len(sizes)]
		if off+n > len(data) {
			n = len(data) - off
		}
		if _, err := w.Write(data[off : off+n]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		off += n
	}
}

// testV3Image checkpoints one upper-half region of size seeded random
// bytes, plus a section, as a genuine v3 chain base (regions, sections,
// shard frames, integrity trailer) and returns its bytes.
func testV3Image(t testing.TB, seed int64, size int, shard int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := addrspace.New()
	addr, err := space.MMap(0, uint64(size), addrspace.ProtRW, 0, addrspace.HalfUpper, "heap")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rng.Read(data)
	if err := space.WriteAt(addr, data); err != nil {
		t.Fatal(err)
	}
	sec := make([]byte, size/4+17)
	rng.Read(sec)
	eng := &dmtcp.Engine{ShardSize: shard}
	eng.Register(sectionPlugin(sec))
	var buf bytes.Buffer
	if _, _, err := eng.CheckpointDelta(context.Background(), &buf, space, nil, "base"); err != nil {
		t.Fatalf("CheckpointDelta: %v", err)
	}
	return buf.Bytes()
}

// sectionPlugin contributes one fixed section to every checkpoint.
type sectionPlugin []byte

func (p sectionPlugin) Name() string { return "test" }
func (p sectionPlugin) Freeze(uint64, uint64, bool) (dmtcp.EmitFunc, uint64, error) {
	return func(_ context.Context, _ addrspace.View, s *dmtcp.SectionMap) error {
		s.Add("test-section", p)
		return nil
	}, 0, nil
}
func (p sectionPlugin) Resume() error                                          { return nil }
func (p sectionPlugin) LazyRestart(context.Context, *dmtcp.LazyRestorer) error { return nil }

func TestChunkerV3Roundtrip(t *testing.T) {
	stream := testV3Image(t, 1, 1<<20, 64<<10)
	chunks := make(chunkMap)
	c := NewChunker(chunks.sink)
	feed(t, c, stream)
	man, err := c.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if man.Version != 3 {
		t.Fatalf("manifest version = %d, want 3 (structured parse fell back to raw)", man.Version)
	}
	if len(chunks) == 0 {
		t.Fatal("no chunks emitted for a shard-framed image")
	}
	if man.Length != uint64(len(stream)) {
		t.Fatalf("manifest length %d, stream length %d", man.Length, len(stream))
	}
	got := reconstruct(t, man, chunks)
	if !bytes.Equal(got, stream) {
		t.Fatal("reconstructed stream differs from original")
	}
	// The payload went into chunks, not the manifest: inline bytes are
	// bounded metadata (headers, frame headers, trailer).
	var inline uint64
	for i := range man.Segments {
		if !man.Segments[i].IsChunk() {
			inline += man.Segments[i].Length
		}
	}
	if inline > uint64(len(stream))/10 {
		t.Fatalf("inline bytes %d exceed 10%% of the %d-byte stream", inline, len(stream))
	}
	// The stream parses back as the image it was.
	if _, err := dmtcp.ReadImage(bytes.NewReader(got)); err != nil {
		t.Fatalf("reconstructed stream does not parse as an image: %v", err)
	}
}

func TestChunkerDedupsIdenticalShards(t *testing.T) {
	// Two images with identical region content must share every payload
	// chunk.
	stream := testV3Image(t, 7, 1<<20, 64<<10)
	chunks := make(chunkMap)
	for i := 0; i < 2; i++ {
		c := NewChunker(chunks.sink)
		if _, err := c.Write(stream); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if _, err := c.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}
	var chunkBytes int
	for _, b := range chunks {
		chunkBytes += len(b)
	}
	if chunkBytes > len(stream) {
		t.Fatalf("two identical images stored %d chunk bytes, more than one image (%d)", chunkBytes, len(stream))
	}
}

func TestChunkerRawFallback(t *testing.T) {
	// Not a v3 image: exact reconstruction through fixed-size chunks.
	rng := rand.New(rand.NewSource(3))
	stream := make([]byte, rawChunkSize*2+12345)
	rng.Read(stream)
	chunks := make(chunkMap)
	c := NewChunker(chunks.sink)
	feed(t, c, stream)
	man, err := c.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if man.Version != 0 {
		t.Fatalf("manifest version = %d, want 0 for a foreign stream", man.Version)
	}
	if got := reconstruct(t, man, chunks); !bytes.Equal(got, stream) {
		t.Fatal("reconstructed stream differs from original")
	}
}

func TestChunkerTruncatedV3StaysExact(t *testing.T) {
	stream := testV3Image(t, 11, 1<<19, 64<<10)
	cut := len(stream) - len(stream)/3 // mid-shard somewhere
	chunks := make(chunkMap)
	c := NewChunker(chunks.sink)
	if _, err := c.Write(stream[:cut]); err != nil {
		t.Fatalf("Write: %v", err)
	}
	man, err := c.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := reconstruct(t, man, chunks); !bytes.Equal(got, stream[:cut]) {
		t.Fatal("truncated stream did not reconstruct exactly")
	}
}

func TestManifestEncodeDecode(t *testing.T) {
	stream := testV3Image(t, 5, 1<<19, 32<<10)
	c := NewChunker(nil) // dry run: chunks dropped, manifest kept
	feed(t, c, stream)
	man, err := c.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	var buf bytes.Buffer
	if err := man.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !IsManifestHeader(buf.Bytes()) {
		t.Fatal("encoded manifest does not carry the manifest magic")
	}
	meta, err := ReadManifestMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadManifestMeta: %v", err)
	}
	if meta.Version != man.Version || meta.Length != man.Length || meta.Parent != man.Parent {
		t.Fatalf("meta prologue %+v does not match manifest", meta)
	}
	dec, err := DecodeManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if len(dec.Segments) != len(man.Segments) {
		t.Fatalf("decoded %d segments, want %d", len(dec.Segments), len(man.Segments))
	}
	for i := range man.Segments {
		a, b := &man.Segments[i], &dec.Segments[i]
		if a.IsChunk() != b.IsChunk() || a.Length != b.Length || a.Sum != b.Sum ||
			!bytes.Equal(a.Inline, b.Inline) {
			t.Fatalf("segment %d mismatch after decode", i)
		}
	}
	// Corrupting the length claim must be caught.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[12+2+4] ^= 0x01 // a byte of the u64 length field (after magic+ver+flags+parentLen(0)+depth)
	if _, err := DecodeManifest(bytes.NewReader(bad)); err == nil {
		t.Fatal("DecodeManifest accepted a manifest whose segment sum mismatches its length")
	}
}

func TestChunkName(t *testing.T) {
	sum := sha256.Sum256([]byte("x"))
	name := ChunkName(sum)
	if !IsChunkName(name) {
		t.Fatalf("IsChunkName(%q) = false", name)
	}
	for _, bad := range []string{"", "cas-", "cas-XYZ", name[:len(name)-1], name + "0",
		"CAS-" + name[4:], "ckpt-000001", name[:len(name)-1] + "G"} {
		if IsChunkName(bad) {
			t.Fatalf("IsChunkName(%q) = true", bad)
		}
	}
}

// TestChunkerStagingPooled is the alloc regression for the staging
// path: chunking a large stream must reuse pooled staging buffers, not
// allocate per chunk. Measured in bytes (TotalAlloc), since an
// unpooled regression shows up as ~stream-size allocation while the
// pooled path stays near one chunk buffer.
func TestChunkerStagingPooled(t *testing.T) {
	stream := make([]byte, 8<<20)
	rand.New(rand.NewSource(9)).Read(stream) // raw mode: maximal chunk traffic
	run := func() {
		c := NewChunker(func(name string, buf *[]byte, n int) error {
			ReleaseBuf(buf)
			return nil
		})
		if _, err := c.Write(stream); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if _, err := c.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}
	run() // warm the pool
	var best uint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		d := after.TotalAlloc - before.TotalAlloc
		if i == 0 || d < best {
			best = d
		}
	}
	// 8 MB of stream through 256 KiB chunks: pooled staging should stay
	// around one or two chunk buffers plus manifest bookkeeping. A
	// per-chunk allocation regression lands at ≥ 8 MB.
	if best > 4<<20 {
		t.Fatalf("chunking 8 MB allocated %d bytes (best of 5); staging buffers are not pooled", best)
	}
}

func TestChunkerWriteAfterFinish(t *testing.T) {
	c := NewChunker(nil)
	if _, err := c.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("Write after Finish succeeded")
	}
	if _, err := c.Finish(); err == nil {
		t.Fatal("second Finish succeeded")
	}
}

func TestChunkerSinkError(t *testing.T) {
	boom := fmt.Errorf("boom")
	c := NewChunker(func(string, *[]byte, int) error { return boom })
	big := make([]byte, rawChunkSize*2)
	if _, err := c.Write(big); err != boom {
		t.Fatalf("Write error = %v, want sink's", err)
	}
	if _, err := c.Finish(); err != boom {
		t.Fatalf("Finish error = %v, want sink's", err)
	}
}
