// Lazy on-demand restart: a random-access shard index over checkpoint
// image bodies, and the restorer that faults shards in on first access
// while a background prefetcher drains the rest.
//
// # ShardIndex
//
// OpenShardIndex scans only an image's headers (magic, flags, region
// and section tables, shard headers) out of an io.ReaderAt, recording
// each payload shard's file offset instead of decoding it. Shards are
// self-addressed by (span, offset); a chain image's shards carry a
// content hash, verified on every lazy decode.
//
// It is the one parser of image bodies: restart, crac.OpenImageFrom,
// compaction (EncodeBase) and chain verification all read stored bytes
// through it. Indexes chain like delta images: SetParent links a delta's
// index to its parent's, and range resolution walks the chain to the
// nearest ancestor that owns each shard (spans — upper-half regions and
// fill-only spans alike — inherit by absolute address, sections by name
// and offset).
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
	"slices"
	"sort"

	"repro/internal/addrspace"
)

// ixShard is one indexed payload shard.
type ixShard struct {
	span    int
	off     uint64 // offset within the span
	rawLen  uint32
	fileOff int64  // payload offset in src
	hash    uint64 // content hash (chain images)
}

// ixSpan is one destination span of the image layout: regions in table
// order, then sections.
type ixSpan struct {
	size   uint64
	shards []int // indices into ShardIndex.shards, ascending by off
}

// ShardIndex is the random-access map of one image body.
type ShardIndex struct {
	// ImageMeta is the image's prologue: encoding, kind and lineage.
	ImageMeta

	// Regions holds the span table — upper-half regions and fill-only
	// spans, ascending and disjoint; Secs the section table.
	Regions []RegionData
	Secs    []SectionHdr

	ShardSize int

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
// recorded parent identity (a parent name rebound to different content
// must fail, not silently mix states) and the shard grid.
func (ix *ShardIndex) SetParent(p *ShardIndex) error {
	if !ix.Delta {
		return fmt.Errorf("%w: SetParent on a non-delta image", ErrBadImage)
	}
	if ix.ParentID != 0 && p.ID != ix.ParentID {
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

// offset is the current logical position (the next payload's file
// offset).
func (sc *scanner) offset() int64 { return sc.pos }

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

// OpenShardIndex scans the image headers in src and builds the
// random-access shard index without decoding any payload. A source
// holding the whole image in memory — one whose Bytes method returns
// all size bytes — is indexed in place: the trailer pass and stored
// shards read it without copying (InMemory).
func OpenShardIndex(src io.ReaderAt, size int64) (*ShardIndex, error) {
	return openShardIndex(src, size, memOf(src, size))
}

// OpenShardIndexWhole is OpenShardIndex for a caller that reads every
// byte anyway: an image of at most limit bytes not already in memory is
// read with one ReadAt and indexed in memory, instead of header by
// header. A waited restart passes PrefetchChunk; a reader that must hold
// the image after its source closes (crac.OpenImageFrom) passes size.
func OpenShardIndexWhole(src io.ReaderAt, size, limit int64) (*ShardIndex, error) {
	mem := memOf(src, size)
	if mem == nil && size <= limit {
		var err error
		if mem, err = readWhole(src, size); err != nil {
			return nil, err
		}
		src = bytes.NewReader(mem)
	}
	return openShardIndex(src, size, mem)
}

// readWhole reads all size bytes of src. Beyond PrefetchChunk, size is
// the store's claim, not yet backed by data: the buffer doubles as the
// bytes actually arrive instead of being allocated up front.
func readWhole(src io.ReaderAt, size int64) ([]byte, error) {
	mem := make([]byte, 0, min(size, PrefetchChunk))
	for int64(len(mem)) < size {
		if len(mem) == cap(mem) {
			mem = slices.Grow(mem, int(min(size, 2*int64(cap(mem))))-len(mem))
		}
		end := min(int64(cap(mem)), size)
		if err := readFullAt(src, mem[len(mem):end], int64(len(mem))); err != nil {
			return nil, err
		}
		mem = mem[:end]
	}
	return mem, nil
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
	sc.expect(prologueSize)
	h, err := readHeader(sc, sc.expect)
	if err != nil {
		return nil, err
	}
	ix := &ShardIndex{ImageMeta: h.ImageMeta, Regions: h.regions, Secs: h.secs, ShardSize: h.shardSize, src: src}
	tl := newTiling(h)
	for _, size := range tl.sizes {
		ix.spans = append(ix.spans, ixSpan{size: size})
	}
	var hdr [shardHdrV3]byte
	for i := 0; i < h.shards; i++ {
		if _, err := io.ReadFull(sc, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: shard %d header: %v", ErrBadImage, i, err)
		}
		rec, err := tl.admit(i, hdr[:])
		if err != nil {
			return nil, err
		}
		ix.addShard(ixShard{span: rec.span, off: rec.off, rawLen: rec.rawLen,
			fileOff: sc.offset(), hash: rec.hash})
		if err := sc.skip(int64(rec.rawLen)); err != nil {
			return nil, fmt.Errorf("%w: shard %d data: %v", ErrBadImage, i, err)
		}
	}
	if err := tl.finish(); err != nil {
		return nil, err
	}
	ix.size, ix.bodyLen, ix.mem = size, sc.offset(), mem
	return ix, nil
}

func (ix *ShardIndex) addShard(sh ixShard) {
	idx := len(ix.shards)
	ix.shards = append(ix.shards, sh)
	ix.spans[sh.span].shards = append(ix.spans[sh.span].shards, idx)
}

// Coverage counts the shards and payload bytes the image's layout tiles
// into, and those the image carries: equal for a full image, the dirty
// subset for a delta.
func (ix *ShardIndex) Coverage() (shardsTotal, shardsEmitted int, rawTotal, rawEmitted uint64) {
	for _, sp := range ix.spans {
		shardsTotal += int((sp.size + uint64(ix.ShardSize) - 1) / uint64(ix.ShardSize))
		rawTotal += sp.size
	}
	for _, sh := range ix.shards {
		rawEmitted += uint64(sh.rawLen)
	}
	return shardsTotal, len(ix.shards), rawTotal, rawEmitted
}

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

// readShard reads shard i into dst (len(dst) == rawLen) straight out of
// the backing source, verifying the content hash when the image carries
// one.
func (ix *ShardIndex) readShard(i int, dst []byte) error {
	sh := &ix.shards[i]
	if len(dst) != int(sh.rawLen) {
		return fmt.Errorf("dmtcp: readShard: dst %d != rawLen %d", len(dst), sh.rawLen)
	}
	if _, err := ix.src.ReadAt(dst, sh.fileOff); err != nil {
		return fmt.Errorf("%w: truncated shard at %d: %v", ErrBadImage, sh.fileOff, err)
	}
	if !ix.Unhashed && shardSum(dst) != sh.hash {
		return fmt.Errorf("%w: shard at %d: content hash mismatch", ErrCorruptImage, sh.fileOff)
	}
	return nil
}

// shardView returns shard i's raw bytes without copying when the image
// is held in memory, checking the content hash as readShard would; nil
// when the shard must be read into a buffer.
func (ix *ShardIndex) shardView(i int) ([]byte, error) {
	if ix.mem == nil {
		return nil, nil
	}
	sh := &ix.shards[i]
	raw := ix.mem[sh.fileOff : sh.fileOff+int64(sh.rawLen)]
	if !ix.Unhashed && shardSum(raw) != sh.hash {
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
// offset.
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

// shardCache holds the shard a ranged read decoded last, so a forward
// walk of reads that each want part of one shard decodes and
// hash-verifies it once.
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

// readSectionRange fills dst with section bytes [off, off+len(dst)),
// walking the parent chain for ranges this image does not carry.
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
	return ix.readSpanRange(len(ix.Regions)+si, off, dst, cache, func(off uint64, dst []byte) error {
		if ix.parent == nil {
			if ix.Delta {
				return fmt.Errorf("%w: section %q range %d+%d not in image and no parent linked", ErrDeltaChain, name, off, len(dst))
			}
			// A self-contained image with a payload gap can only be a
			// zero-size tail; leave dst zeroed.
			return nil
		}
		return ix.parent.readSectionRange(name, off, dst, cache)
	})
}

// ReadAt fills p with the span bytes at absolute address addr, resolved
// through the linked chain (see readRegionRange). It is safe for
// concurrent use: compaction's write pipeline reads a chain through it.
func (ix *ShardIndex) ReadAt(addr uint64, p []byte) error {
	return ix.readRegionRange(addr, p, new(shardCache))
}

// readRegionRange fills dst with the span bytes at absolute address
// addr, resolved as a restart resolves them: ranges this image carries
// come from its shards, the clean ranges of a delta from the nearest
// ancestor that carries them. A range outside the image's span table is
// a lineage hole: new mappings are dirty from birth, and a delta emits
// a fill-only shard its parent does not cover, so a well-formed chain
// has none.
func (ix *ShardIndex) readRegionRange(addr uint64, dst []byte, cache *shardCache) error {
	end := addr + uint64(len(dst))
	at := addr
	for i := ix.firstSpanEndingAfter(addr); i < len(ix.Regions); i++ {
		rd := ix.Regions[i]
		lo, hi := max(rd.Start, at), min(rd.Start+rd.Len, end)
		if lo >= hi {
			continue
		}
		if lo > at {
			break
		}
		err := ix.readSpanRange(i, lo-rd.Start, dst[lo-addr:hi-addr], cache, func(off uint64, dst []byte) error {
			if ix.parent == nil {
				return fmt.Errorf("%w: region bytes %#x+%#x missing from base image", ErrDeltaChain, rd.Start+off, len(dst))
			}
			return ix.parent.readRegionRange(rd.Start+off, dst, cache)
		})
		if err != nil {
			return err
		}
		at = hi
	}
	if at < end {
		return fmt.Errorf("%w: region bytes %#x+%#x not mapped by image", ErrDeltaChain, at, end-at)
	}
	return nil
}

// firstSpanEndingAfter returns the index of the first span-table entry
// that ends after addr.
func (ix *ShardIndex) firstSpanEndingAfter(addr uint64) int {
	return sort.Search(len(ix.Regions), func(i int) bool { return ix.Regions[i].Start+ix.Regions[i].Len > addr })
}

// readSpanRange fills dst with bytes [off, off+len(dst)) of span from
// this image's shards and hands every range the image does not carry
// to gap, as a span offset and the part of dst it fills. Shards wanted
// whole decode straight into place; partly wanted ones decode through
// cache.
func (ix *ShardIndex) readSpanRange(span int, off uint64, dst []byte, cache *shardCache, gap func(off uint64, dst []byte) error) error {
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
		if err := gap(g.Off, dst[g.Off-off:g.Off-off+g.Len]); err != nil {
			return err
		}
	}
	return nil
}
