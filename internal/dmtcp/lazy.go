// Lazy on-demand restart: a random-access shard index over checkpoint
// image bodies, and the restorer that faults shards in on first access
// while a background prefetcher drains the rest.
//
// # ShardIndex
//
// OpenShardIndex scans only an image's headers (magic, flags, region
// and section tables, shard framing) out of an io.ReaderAt, recording
// each payload shard's file offset instead of decoding it. The three
// formats index differently:
//
//   - v2: the frame stream is walked header-by-header; each frame is
//     mapped back to its (span, offset) through the deterministic
//     layout (the writer never emits a frame spanning two spans);
//   - v3: shards are self-addressed by (span, offset) and carry a
//     content hash, verified on every lazy decode;
//   - v1 uncompressed: the interleaved region/section payloads are
//     located by seeking over them, and a synthetic DefaultShardSize
//     grid is laid over each payload (stored bytes are random-access
//     at byte granularity);
//   - v1 whole-body gzip: a single gzip stream has no random access,
//     so the body is decoded once up front and the index serves shards
//     from memory — restore-side laziness (cold pages, prefetch) still
//     applies, only the decode is eager.
//
// Indexes chain like delta images: SetParent links a delta's index to
// its parent's, and range resolution walks the chain to the nearest
// ancestor that owns each shard (regions inherit by absolute address,
// sections by name and offset — the same rules as ApplyDelta).
//
// # LazyRestorer
//
// The restorer owns the fill plans (which target address ranges are
// backed by which image bytes), the single-flight shard decode state,
// and the prefetcher. Its MaterializeRange is the addrspace
// Materializer: it resolves the page range to source shards, decodes
// each at most once (concurrent faults and the prefetcher wait on the
// same in-flight call), scatters the decoded bytes through
// Space.FillCold, and marks the range warm. Invariant 11 (DESIGN.md):
// once the prefetcher drains, memory is byte-identical to the image's
// materialized content, whatever order faults and the drain took.
package dmtcp

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/addrspace"
)

// ixShard is one indexed payload shard.
type ixShard struct {
	span    int
	off     uint64 // offset within the span
	rawLen  uint32
	encLen  uint32
	fileOff int64  // payload offset in src (ignored when mem != nil)
	hash    uint64 // v3 content hash
	hashed  bool   // verify hash on decode
	gz      bool   // payload is one gzip member
	mem     []byte // in-memory payload (v1 gzip fallback)
}

// ixSpan is one destination span of the image layout: regions in table
// order, then sections.
type ixSpan struct {
	size   uint64
	shards []int // indices into ShardIndex.shards, ascending by off
}

// ShardIndex is the random-access map of one image body.
type ShardIndex struct {
	Version int
	Gzip    bool
	Delta   bool // v3 delta (carries only dirty shards)
	Parent  string
	Depth   int

	// Regions holds the region headers (Data always nil); Secs the
	// section table.
	Regions []RegionData
	Secs    []SectionHdr

	ShardSize int

	id, parentID uint64

	shards []ixShard
	spans  []ixSpan
	src    io.ReaderAt

	// size is the source's length and bodyLen where the scan found the
	// body to end: whatever lies between is the integrity trailer.
	size, bodyLen int64
	// mem is the whole image when the index holds it in memory, so
	// stored shards are used in place.
	mem []byte

	parent *ShardIndex
}

// SetParent links a delta's index to its parent's, after verifying the
// recorded parent identity (the same check ApplyDelta performs: a
// parent name rebound to different content must fail, not silently mix
// states).
func (ix *ShardIndex) SetParent(p *ShardIndex) error {
	if !ix.Delta {
		return fmt.Errorf("%w: SetParent on a non-delta image", ErrBadImage)
	}
	if ix.parentID != 0 && p.id != ix.parentID {
		return fmt.Errorf("%w: image %q is not the parent this delta was written against", ErrDeltaChain, ix.Parent)
	}
	if ix.ShardSize != p.ShardSize {
		return fmt.Errorf("%w: shard size changed across chain (%d vs %d)", ErrDeltaChain, ix.ShardSize, p.ShardSize)
	}
	ix.parent = p
	return nil
}

// scanner is a sequential reader over an io.ReaderAt whose skip is a
// true seek and whose reads are exact: a refill fetches what the caller
// asked for, plus only as far as the parser has declared (expect) the
// stream must still hold header bytes. The prologue tables therefore
// arrive in a few buffered reads, while a frame or shard header between
// two payloads costs exactly its own length — the scan never touches a
// payload byte, which is what keeps it O(headers) when payloads live
// in another store object (a CAS chunk, a remote range).
type scanner struct {
	src      io.ReaderAt
	size     int64
	pos      int64  // logical read position
	buf      []byte // read-ahead window: src[bufStart : bufStart+len(buf)]
	bufStart int64
	known    int64 // header bytes are known to extend (at least) to here
}

// scanAhead caps one refill's read-ahead into declared header bytes.
const scanAhead = 8 << 10

func newScanner(src io.ReaderAt, size int64) *scanner {
	return &scanner{src: src, size: size}
}

// expect declares that at least n more header bytes follow the current
// position (a lower bound computed from a count just parsed), allowing
// the next refill to read that far ahead.
func (sc *scanner) expect(n int64) {
	if end := sc.pos + n; end > sc.known {
		sc.known = end
	}
}

func (sc *scanner) Read(p []byte) (int, error) {
	if sc.pos >= sc.size {
		return 0, io.EOF
	}
	if o := sc.pos - sc.bufStart; o < 0 || o >= int64(len(sc.buf)) {
		n := max(int64(len(p)), min(sc.known-sc.pos, scanAhead))
		n = min(n, sc.size-sc.pos)
		if int64(cap(sc.buf)) < n {
			sc.buf = make([]byte, n)
		}
		m, err := sc.src.ReadAt(sc.buf[:n], sc.pos)
		sc.buf, sc.bufStart = sc.buf[:m], sc.pos
		if m == 0 {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
	}
	k := copy(p, sc.buf[sc.pos-sc.bufStart:])
	sc.pos += int64(k)
	return k, nil
}

// skip seeks past n payload bytes without reading them.
func (sc *scanner) skip(n int64) error {
	if sc.pos+n > sc.size {
		return io.ErrUnexpectedEOF
	}
	sc.pos += n
	return nil
}

// off is the current logical position (the next payload's file offset).
func (sc *scanner) offset() int64 { return sc.pos }

func (sc *scanner) u32() (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(sc, b[:]); err != nil {
		return 0, err
	}
	return le32(b[:]), nil
}

func (sc *scanner) u64() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(sc, b[:]); err != nil {
		return 0, err
	}
	return le64(b[:]), nil
}

func (sc *scanner) byte1() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(sc, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

// OpenShardIndex scans the image headers in src and builds the
// random-access shard index without decoding any payload (except the
// v1 whole-body-gzip fallback, which has no random access). A source
// holding the whole image in memory — one whose Bytes method returns
// all size bytes — is indexed in place: the trailer pass and stored
// shards read it without copying (InMemory).
func OpenShardIndex(src io.ReaderAt, size int64) (*ShardIndex, error) {
	return openShardIndex(src, size, memOf(src, size))
}

// OpenShardIndexWhole is OpenShardIndex for a caller that reads every
// byte anyway (a waited restart): an image of at most PrefetchChunk
// bytes not already in memory is read with one ReadAt and indexed in
// memory, instead of header by header.
func OpenShardIndexWhole(src io.ReaderAt, size int64) (*ShardIndex, error) {
	mem := memOf(src, size)
	if mem == nil && size <= PrefetchChunk {
		mem = make([]byte, size)
		if err := readFullAt(src, mem, 0); err != nil {
			return nil, err
		}
		src = bytes.NewReader(mem)
	}
	return openShardIndex(src, size, mem)
}

// memOf returns the whole image when src holds it in memory, else nil.
func memOf(src io.ReaderAt, size int64) []byte {
	if m, ok := src.(interface{ Bytes() []byte }); ok && int64(len(m.Bytes())) == size {
		return m.Bytes()
	}
	return nil
}

// InMemory reports whether the index holds its whole image in memory,
// so that reading every byte again costs no I/O.
func (ix *ShardIndex) InMemory() bool { return ix.mem != nil }

func openShardIndex(src io.ReaderAt, size int64, mem []byte) (*ShardIndex, error) {
	sc := newScanner(src, size)
	// Every format opens with magic, flags and at least one more u32.
	sc.expect(16)
	var magic [8]byte
	if _, err := io.ReadFull(sc, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrBadImage, err)
	}
	var ix *ShardIndex
	var err error
	switch magic {
	case imageMagicV1:
		ix, err = scanIndexV1(src, size, sc)
	case imageMagicV2:
		ix, err = scanIndexV2(src, sc)
	case imageMagicV3:
		ix, err = scanIndexV3(src, sc)
	default:
		if string(magic[:7]) == string(imageMagicV1[:7]) {
			return nil, fmt.Errorf("%w: %q", ErrUnsupportedVersion, magic[:])
		}
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadImage, magic[:])
	}
	if err != nil {
		return nil, err
	}
	ix.size, ix.bodyLen, ix.mem = size, sc.offset(), mem
	return ix, nil
}

// Minimum encoded sizes of one table entry (an empty label or name):
// what expect may count on before the strings have been read.
const (
	regionHdrMin  = 8 + 8 + 1 + 2 // start, len, prot, label length
	sectionHdrMin = 2 + 8         // name length, size (v3 adds a flags byte)
)

// scanRegionTable parses the shared region header table.
func scanRegionTable(sc *scanner) ([]RegionData, uint64, error) {
	n, err := sc.u32()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: region count: %v", ErrBadImage, err)
	}
	if n > maxItemCount {
		return nil, 0, fmt.Errorf("%w: region count %d", ErrBadImage, n)
	}
	var total uint64
	regions := make([]RegionData, 0, n)
	for i := uint32(0); i < n; i++ {
		// The rest of the table, labels aside, then the section count.
		sc.expect(int64(n-i)*regionHdrMin + 4)
		var rd RegionData
		if rd.Start, err = sc.u64(); err != nil {
			return nil, 0, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		if rd.Len, err = sc.u64(); err != nil {
			return nil, 0, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		if rd.Len > maxItemBytes {
			return nil, 0, fmt.Errorf("%w: region %d len %d", ErrBadImage, i, rd.Len)
		}
		prot, err := sc.byte1()
		if err != nil {
			return nil, 0, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		rd.Prot = addrspace.Prot(prot)
		if rd.Label, err = readString(sc); err != nil {
			return nil, 0, fmt.Errorf("%w: region %d label: %v", ErrBadImage, i, err)
		}
		total += rd.Len
		regions = append(regions, rd)
	}
	return regions, total, nil
}

func scanIndexV2(src io.ReaderAt, sc *scanner) (*ShardIndex, error) {
	flags, err := readFlags(sc, 1)
	if err != nil {
		return nil, err
	}
	ix := &ShardIndex{Version: 2, Gzip: flags[0]&1 != 0, src: src}
	regions, totalRaw, err := scanRegionTable(sc)
	if err != nil {
		return nil, err
	}
	ix.Regions = regions
	nSec, err := sc.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: section count: %v", ErrBadImage, err)
	}
	if nSec > maxItemCount {
		return nil, fmt.Errorf("%w: section count %d", ErrBadImage, nSec)
	}
	for i := uint32(0); i < nSec; i++ {
		sc.expect(int64(nSec-i)*sectionHdrMin + 4) // then the shard size
		name, err := readString(sc)
		if err != nil {
			return nil, fmt.Errorf("%w: section %d name: %v", ErrBadImage, i, err)
		}
		n, err := sc.u64()
		if err != nil {
			return nil, fmt.Errorf("%w: section %d size: %v", ErrBadImage, i, err)
		}
		if n > maxItemBytes {
			return nil, fmt.Errorf("%w: section %d len %d", ErrBadImage, i, n)
		}
		ix.Secs = append(ix.Secs, SectionHdr{Name: name, Size: n})
		totalRaw += n
	}
	if totalRaw > maxTotalBytes {
		return nil, fmt.Errorf("%w: payload too large (%d bytes)", ErrBadImage, totalRaw)
	}
	shard, err := sc.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: shard size: %v", ErrBadImage, err)
	}
	if shard == 0 || shard > maxFrameBytes {
		// v2 calls the field informational; lazy indexing only keeps it
		// for diagnostics, so a missing value falls back to the default.
		shard = DefaultShardSize
	}
	ix.ShardSize = int(shard)
	ix.buildSpans()

	// Frame walk: map each frame back to its span through the layout.
	var consumed uint64
	for consumed < totalRaw {
		var hdr [8]byte
		if _, err := io.ReadFull(sc, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: frame header at %d: %v", ErrBadImage, consumed, err)
		}
		rawLen := le32(hdr[0:])
		encLen := le32(hdr[4:])
		if rawLen == 0 || uint64(rawLen) > maxFrameBytes || encLen == 0 || uint64(encLen) > maxFrameBytes {
			return nil, fmt.Errorf("%w: frame %d/%d bytes at %d", ErrBadImage, rawLen, encLen, consumed)
		}
		if consumed+uint64(rawLen) > totalRaw {
			return nil, fmt.Errorf("%w: frame overruns payload at %d", ErrBadImage, consumed)
		}
		if !ix.Gzip && encLen != rawLen {
			return nil, fmt.Errorf("%w: stored frame %d != %d at %d", ErrBadImage, encLen, rawLen, consumed)
		}
		span, spanOff, ok := ix.spanAt(consumed)
		if !ok || spanOff+uint64(rawLen) > ix.spans[span].size {
			// The format permits span-straddling frames but the writer
			// never emits them; random access needs the writer layout.
			return nil, fmt.Errorf("%w: frame at %d straddles spans", ErrBadImage, consumed)
		}
		ix.addShard(ixShard{span: span, off: spanOff, rawLen: rawLen, encLen: encLen,
			fileOff: sc.offset(), gz: ix.Gzip})
		if err := sc.skip(int64(encLen)); err != nil {
			return nil, fmt.Errorf("%w: frame data at %d: %v", ErrBadImage, consumed, err)
		}
		consumed += uint64(rawLen)
	}
	return ix, nil
}

func scanIndexV3(src io.ReaderAt, sc *scanner) (*ShardIndex, error) {
	flags, err := readFlags(sc, 3)
	if err != nil {
		return nil, err
	}
	ix := &ShardIndex{Version: 3, Gzip: flags[0]&1 != 0, Delta: flags[0]&2 != 0, src: src}
	const lineage = 4 + 8 + 8 + 4 // depth, image id, parent id, then the region count
	sc.expect(2 + lineage)
	if ix.Parent, err = readString(sc); err != nil {
		return nil, fmt.Errorf("%w: parent: %v", ErrBadImage, err)
	}
	sc.expect(lineage)
	depth, err := sc.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: depth: %v", ErrBadImage, err)
	}
	if depth > MaxChainDepth {
		return nil, fmt.Errorf("%w: delta depth %d", ErrBadImage, depth)
	}
	if ix.Delta && ix.Parent == "" {
		return nil, fmt.Errorf("%w: delta image names no parent", ErrBadImage)
	}
	ix.Depth = int(depth)
	if ix.id, err = sc.u64(); err != nil {
		return nil, fmt.Errorf("%w: image id: %v", ErrBadImage, err)
	}
	if ix.parentID, err = sc.u64(); err != nil {
		return nil, fmt.Errorf("%w: parent id: %v", ErrBadImage, err)
	}
	regions, totalRaw, err := scanRegionTable(sc)
	if err != nil {
		return nil, err
	}
	ix.Regions = regions
	nSec, err := sc.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: section count: %v", ErrBadImage, err)
	}
	if nSec > maxItemCount {
		return nil, fmt.Errorf("%w: section count %d", ErrBadImage, nSec)
	}
	for i := uint32(0); i < nSec; i++ {
		sc.expect(int64(nSec-i)*(sectionHdrMin+1) + 8) // then shard size and count
		name, err := readString(sc)
		if err != nil {
			return nil, fmt.Errorf("%w: section %d name: %v", ErrBadImage, i, err)
		}
		n, err := sc.u64()
		if err != nil {
			return nil, fmt.Errorf("%w: section %d size: %v", ErrBadImage, i, err)
		}
		if n > maxItemBytes {
			return nil, fmt.Errorf("%w: section %d len %d", ErrBadImage, i, n)
		}
		sf, err := sc.byte1()
		if err != nil {
			return nil, fmt.Errorf("%w: section %d flags: %v", ErrBadImage, i, err)
		}
		ix.Secs = append(ix.Secs, SectionHdr{Name: name, Size: n, Opaque: sf&1 != 0})
		totalRaw += n
	}
	if totalRaw > maxTotalBytes {
		return nil, fmt.Errorf("%w: payload too large (%d bytes)", ErrBadImage, totalRaw)
	}
	shard, err := sc.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: shard size: %v", ErrBadImage, err)
	}
	if shard == 0 || shard > maxFrameBytes {
		return nil, fmt.Errorf("%w: shard size %d", ErrBadImage, shard)
	}
	ix.ShardSize = int(shard)
	shardCount, err := sc.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: shard count: %v", ErrBadImage, err)
	}
	if shardCount > maxItemCount {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadImage, shardCount)
	}
	ix.buildSpans()

	var expected uint64 // base: next global offset (exact tiling)
	var prevEnd uint64  // delta: strictly ascending
	for i := uint32(0); i < shardCount; i++ {
		var hdr [shardHdrV3]byte
		if _, err := io.ReadFull(sc, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: shard %d header: %v", ErrBadImage, i, err)
		}
		sp := le32(hdr[0:])
		so := le64(hdr[4:])
		rawLen := le32(hdr[12:])
		encLen := le32(hdr[16:])
		hash := le64(hdr[20:])
		if int(sp) >= len(ix.spans) || rawLen == 0 || uint64(rawLen) > uint64(ix.ShardSize) ||
			encLen == 0 || encLen > maxFrameBytes ||
			so+uint64(rawLen) < so || so+uint64(rawLen) > ix.spans[sp].size {
			return nil, fmt.Errorf("%w: shard %d (span %d, off %d, %d/%d bytes)", ErrBadImage, i, sp, so, rawLen, encLen)
		}
		if !ix.Gzip && encLen != rawLen {
			return nil, fmt.Errorf("%w: stored shard %d != %d", ErrBadImage, encLen, rawLen)
		}
		global := ix.spanBase(int(sp)) + so
		if !ix.Delta {
			if global != expected {
				return nil, fmt.Errorf("%w: shard %d at raw offset %d, want %d", ErrBadImage, i, global, expected)
			}
			expected += uint64(rawLen)
		} else {
			if i > 0 && global < prevEnd {
				return nil, fmt.Errorf("%w: shard %d overlaps or regresses at raw offset %d", ErrBadImage, i, global)
			}
			prevEnd = global + uint64(rawLen)
		}
		ix.addShard(ixShard{span: int(sp), off: so, rawLen: rawLen, encLen: encLen,
			fileOff: sc.offset(), hash: hash, hashed: true, gz: ix.Gzip})
		if err := sc.skip(int64(encLen)); err != nil {
			return nil, fmt.Errorf("%w: shard %d data: %v", ErrBadImage, i, err)
		}
	}
	if !ix.Delta && expected != totalRaw {
		return nil, fmt.Errorf("%w: base image covers %d of %d payload bytes", ErrBadImage, expected, totalRaw)
	}
	return ix, nil
}

// scanIndexV1 indexes the legacy serial format. Stored (uncompressed)
// payloads are random-access at byte granularity, so a synthetic
// DefaultShardSize grid is laid over each region/section payload. The
// whole-body-gzip variant decodes once up front and serves shards from
// memory.
func scanIndexV1(src io.ReaderAt, size int64, sc *scanner) (*ShardIndex, error) {
	flags, err := readFlags(sc, 1)
	if err != nil {
		return nil, err
	}
	if flags[0]&1 != 0 {
		// One gzip stream over the whole body: no random access. Decode
		// eagerly through the existing reader and index the in-memory
		// payloads.
		img, err := ReadImage(io.NewSectionReader(src, 0, size))
		if err != nil {
			return nil, err
		}
		ix := &ShardIndex{Version: 1, Gzip: true}
		for _, rd := range img.Regions {
			hdr := rd
			hdr.Data = nil
			ix.Regions = append(ix.Regions, hdr)
		}
		for _, name := range img.Sections.Names() {
			data, _ := img.Sections.Get(name)
			ix.Secs = append(ix.Secs, SectionHdr{Name: name, Size: uint64(len(data)), Opaque: img.Sections.Opaque(name)})
		}
		ix.ShardSize = DefaultShardSize
		ix.buildSpans()
		addMem := func(span int, data []byte) {
			for off := 0; off < len(data); off += DefaultShardSize {
				n := len(data) - off
				if n > DefaultShardSize {
					n = DefaultShardSize
				}
				ix.addShard(ixShard{span: span, off: uint64(off), rawLen: uint32(n), encLen: uint32(n),
					mem: data[off : off+n]})
			}
		}
		for i, rd := range img.Regions {
			addMem(i, rd.Data)
		}
		for j, name := range img.Sections.Names() {
			data, _ := img.Sections.Get(name)
			addMem(len(img.Regions)+j, data)
		}
		return ix, nil
	}

	ix := &ShardIndex{Version: 1, src: src}
	nReg, err := sc.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: region count: %v", ErrBadImage, err)
	}
	if nReg > maxItemCount {
		return nil, fmt.Errorf("%w: region count %d", ErrBadImage, nReg)
	}
	type payload struct {
		off int64
		n   uint64
	}
	var pays []payload
	for i := uint32(0); i < nReg; i++ {
		sc.expect(regionHdrMin)
		var rd RegionData
		if rd.Start, err = sc.u64(); err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		if rd.Len, err = sc.u64(); err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		if rd.Len > maxItemBytes {
			return nil, fmt.Errorf("%w: region %d len %d", ErrBadImage, i, rd.Len)
		}
		prot, err := sc.byte1()
		if err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		rd.Prot = addrspace.Prot(prot)
		if rd.Label, err = readString(sc); err != nil {
			return nil, fmt.Errorf("%w: region %d label: %v", ErrBadImage, i, err)
		}
		pays = append(pays, payload{off: sc.offset(), n: rd.Len})
		if err := sc.skip(int64(rd.Len)); err != nil {
			return nil, fmt.Errorf("%w: region %d data: %v", ErrBadImage, i, err)
		}
		ix.Regions = append(ix.Regions, rd)
	}
	nSec, err := sc.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: section count: %v", ErrBadImage, err)
	}
	if nSec > maxItemCount {
		return nil, fmt.Errorf("%w: section count %d", ErrBadImage, nSec)
	}
	for i := uint32(0); i < nSec; i++ {
		sc.expect(sectionHdrMin)
		name, err := readString(sc)
		if err != nil {
			return nil, fmt.Errorf("%w: section %d name: %v", ErrBadImage, i, err)
		}
		n, err := sc.u64()
		if err != nil {
			return nil, fmt.Errorf("%w: section %d size: %v", ErrBadImage, i, err)
		}
		if n > maxItemBytes {
			return nil, fmt.Errorf("%w: section %d len %d", ErrBadImage, i, n)
		}
		pays = append(pays, payload{off: sc.offset(), n: n})
		if err := sc.skip(int64(n)); err != nil {
			return nil, fmt.Errorf("%w: section %d data: %v", ErrBadImage, i, err)
		}
		ix.Secs = append(ix.Secs, SectionHdr{Name: name, Size: n})
	}
	ix.ShardSize = DefaultShardSize
	ix.buildSpans()
	for span, p := range pays {
		for off := uint64(0); off < p.n; off += DefaultShardSize {
			n := p.n - off
			if n > DefaultShardSize {
				n = DefaultShardSize
			}
			ix.addShard(ixShard{span: span, off: off, rawLen: uint32(n), encLen: uint32(n),
				fileOff: p.off + int64(off)})
		}
	}
	return ix, nil
}

// buildSpans lays out the span table from the parsed region/section
// headers.
func (ix *ShardIndex) buildSpans() {
	ix.spans = make([]ixSpan, 0, len(ix.Regions)+len(ix.Secs))
	for _, rd := range ix.Regions {
		ix.spans = append(ix.spans, ixSpan{size: rd.Len})
	}
	for _, sec := range ix.Secs {
		ix.spans = append(ix.spans, ixSpan{size: sec.Size})
	}
}

// spanBase returns the global raw offset of span i.
func (ix *ShardIndex) spanBase(i int) uint64 {
	var off uint64
	for k := 0; k < i; k++ {
		off += ix.spans[k].size
	}
	return off
}

// spanAt maps a global raw offset to (span, offset-within-span).
func (ix *ShardIndex) spanAt(global uint64) (int, uint64, bool) {
	var off uint64
	for i := range ix.spans {
		if global < off+ix.spans[i].size {
			return i, global - off, true
		}
		off += ix.spans[i].size
	}
	return 0, 0, false
}

func (ix *ShardIndex) addShard(sh ixShard) {
	idx := len(ix.shards)
	ix.shards = append(ix.shards, sh)
	ix.spans[sh.span].shards = append(ix.spans[sh.span].shards, idx)
}

// NumShards returns how many payload shards the image carries.
func (ix *ShardIndex) NumShards() int { return len(ix.shards) }

// sectionIndex returns the table index of the named section, or -1.
func (ix *ShardIndex) sectionIndex(name string) int {
	for i, sec := range ix.Secs {
		if sec.Name == name {
			return i
		}
	}
	return -1
}

// HasSection reports whether the image's section table names name.
func (ix *ShardIndex) HasSection(name string) bool { return ix.sectionIndex(name) >= 0 }

// readShard decodes shard i into dst (len(dst) == rawLen), reading the
// encoded bytes straight out of the backing source and verifying the
// content hash when the format carries one.
func (ix *ShardIndex) readShard(i int, dst []byte) error {
	sh := &ix.shards[i]
	if len(dst) != int(sh.rawLen) {
		return fmt.Errorf("dmtcp: readShard: dst %d != rawLen %d", len(dst), sh.rawLen)
	}
	switch {
	case sh.mem != nil:
		copy(dst, sh.mem)
	case !sh.gz:
		if _, err := ix.src.ReadAt(dst, sh.fileOff); err != nil {
			return fmt.Errorf("%w: truncated shard at %d: %v", ErrBadImage, sh.fileOff, err)
		}
	default:
		bp := defaultBudget.getShardBuf(int(sh.encLen))
		enc := (*bp)[:sh.encLen]
		if _, err := ix.src.ReadAt(enc, sh.fileOff); err != nil {
			defaultBudget.putShardBuf(bp)
			return fmt.Errorf("%w: truncated shard at %d: %v", ErrBadImage, sh.fileOff, err)
		}
		err := gunzipInto(dst, enc)
		defaultBudget.putShardBuf(bp)
		if err != nil {
			return fmt.Errorf("%w: shard at %d: %v", ErrBadImage, sh.fileOff, err)
		}
	}
	if sh.hashed && fnvSum64(dst) != sh.hash {
		return fmt.Errorf("%w: shard at %d: content hash mismatch", ErrCorruptImage, sh.fileOff)
	}
	return nil
}

// shardView returns shard i's raw bytes without copying when they lie
// verbatim in memory — a stored shard of an in-memory image, or a
// v1+gzip shard decoded up front — checking the content hash as
// readShard would; nil when the shard must be decoded into a buffer.
func (ix *ShardIndex) shardView(i int) ([]byte, error) {
	sh := &ix.shards[i]
	raw := sh.mem
	if raw == nil && !sh.gz && ix.mem != nil {
		raw = ix.mem[sh.fileOff : sh.fileOff+int64(sh.rawLen)]
	}
	if raw != nil && sh.hashed && fnvSum64(raw) != sh.hash {
		return nil, fmt.Errorf("%w: shard at %d: content hash mismatch", ErrCorruptImage, sh.fileOff)
	}
	return raw, nil
}

// shardsCovering returns the indices of the span's shards overlapping
// [off, off+length) (ascending), plus the uncovered gaps.
func (ix *ShardIndex) shardsCovering(span int, off, length uint64) (idxs []int, gaps []addrspace.Span) {
	end := off + length
	list := ix.spans[span].shards
	// First shard whose end is beyond off.
	lo := sort.Search(len(list), func(i int) bool {
		sh := &ix.shards[list[i]]
		return sh.off+uint64(sh.rawLen) > off
	})
	at := off
	for _, k := range list[lo:] {
		sh := &ix.shards[k]
		if sh.off >= end {
			break
		}
		if sh.off > at {
			gaps = append(gaps, addrspace.Span{Off: at, Len: sh.off - at})
		}
		idxs = append(idxs, k)
		if e := sh.off + uint64(sh.rawLen); e > at {
			at = e
		}
	}
	if at < end {
		gaps = append(gaps, addrspace.Span{Off: at, Len: end - at})
	}
	return idxs, gaps
}

// SectionBytes materializes the named section completely, resolving
// gaps (clean shards of a delta) through the parent chain by name and
// offset — the lazy counterpart of ApplyDelta's section inheritance.
// Opaque sections are returned as carried by this image (they are
// always emitted in full); merging across a chain is the owner
// plugin's business.
func (ix *ShardIndex) SectionBytes(name string) ([]byte, error) {
	si := ix.sectionIndex(name)
	if si < 0 {
		return nil, fmt.Errorf("%w: image has no section %q", ErrBadImage, name)
	}
	out := make([]byte, ix.Secs[si].Size)
	if err := ix.readSectionRange(name, 0, out, new(shardCache)); err != nil {
		return nil, err
	}
	return out, nil
}

// shardCache holds the shard a ranged section read decoded last, so a
// forward walk of small reads (entry headers between payloads) decodes
// and hash-verifies each shard it touches once.
type shardCache struct {
	ix  *ShardIndex // nil: empty
	idx int
	buf []byte
}

func (c *shardCache) shard(ix *ShardIndex, idx int) ([]byte, error) {
	if c.ix == ix && c.idx == idx {
		return c.buf, nil
	}
	c.ix = nil
	n := int(ix.shards[idx].rawLen)
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	c.buf = c.buf[:n]
	if err := ix.readShard(idx, c.buf); err != nil {
		return nil, err
	}
	c.ix, c.idx = ix, idx
	return c.buf, nil
}

// SectionReader reads byte ranges of one section of one image (chain-
// resolved like SectionBytes). It is an io.ReaderAt for one goroutine:
// the shard decoded last is kept between calls.
type SectionReader struct {
	ix    *ShardIndex
	name  string
	size  uint64
	cache shardCache
}

// SectionReader opens the named section for ranged reads.
func (ix *ShardIndex) SectionReader(name string) (*SectionReader, error) {
	si := ix.sectionIndex(name)
	if si < 0 {
		return nil, fmt.Errorf("%w: image has no section %q", ErrBadImage, name)
	}
	return &SectionReader{ix: ix, name: name, size: ix.Secs[si].Size}, nil
}

// Size returns the section's length in bytes.
func (sr *SectionReader) Size() uint64 { return sr.size }

// ReadAt implements io.ReaderAt over the section's bytes.
func (sr *SectionReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || uint64(off) >= sr.size {
		return 0, io.EOF
	}
	short := uint64(len(p)) > sr.size-uint64(off)
	if short {
		p = p[:sr.size-uint64(off)]
	}
	if err := sr.ix.readSectionRange(sr.name, uint64(off), p, &sr.cache); err != nil {
		return 0, err
	}
	if short {
		return len(p), io.EOF
	}
	return len(p), nil
}

// readSectionRange fills dst with section bytes [off, off+len(dst)),
// walking the parent chain for ranges this image does not carry.
// Shards wanted whole decode straight into place; partly wanted ones
// decode through cache.
func (ix *ShardIndex) readSectionRange(name string, off uint64, dst []byte, cache *shardCache) error {
	if len(dst) == 0 {
		return nil
	}
	si := ix.sectionIndex(name)
	if si < 0 {
		return fmt.Errorf("%w: image has no section %q", ErrBadImage, name)
	}
	sec := ix.Secs[si]
	if off+uint64(len(dst)) > sec.Size {
		return fmt.Errorf("%w: section %q range %d+%d beyond %d", ErrBadImage, name, off, len(dst), sec.Size)
	}
	span := len(ix.Regions) + si
	idxs, gaps := ix.shardsCovering(span, off, uint64(len(dst)))
	for _, k := range idxs {
		sh := &ix.shards[k]
		lo, hi := sh.off, sh.off+uint64(sh.rawLen)
		if lo < off {
			lo = off
		}
		if e := off + uint64(len(dst)); hi > e {
			hi = e
		}
		if lo >= hi {
			continue
		}
		if lo == sh.off && hi == sh.off+uint64(sh.rawLen) {
			if err := ix.readShard(k, dst[lo-off:hi-off]); err != nil {
				return err
			}
			continue
		}
		raw, err := cache.shard(ix, k)
		if err != nil {
			return err
		}
		copy(dst[lo-off:hi-off], raw[lo-sh.off:hi-sh.off])
	}
	for _, g := range gaps {
		if ix.parent == nil {
			if ix.Delta {
				return fmt.Errorf("%w: section %q range %d+%d not in image and no parent linked", ErrDeltaChain, name, g.Off, g.Len)
			}
			// A self-contained image with a payload gap can only be a
			// zero-size tail; leave dst zeroed.
			continue
		}
		if err := ix.parent.readSectionRange(name, g.Off, dst[g.Off-off:g.Off-off+g.Len], cache); err != nil {
			return err
		}
	}
	return nil
}
