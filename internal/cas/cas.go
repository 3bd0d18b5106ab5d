// Package cas implements chunk-level content-addressed storage for
// checkpoint images: an image stream is split into chunks keyed by the
// SHA-256 of their content, and the image itself shrinks to a small
// *manifest* — the interleaving of inline header bytes and chunk
// references that reproduces the original stream byte for byte.
//
// The chunker understands the v3 ("CRACIMG3") image format and cuts
// the stream on shard-frame boundaries: every shard's encoded payload
// becomes one chunk, while the image header tables and the 28-byte
// frame headers stay inline in the manifest. Because v3 shards are the
// unit of dirty tracking, two images that share shard content — a base
// and the 97%-clean state of a sibling session, consecutive
// generations of one chain, a thousand tenants loading the same model
// weights — share chunks, and a store that keys chunks by content
// stores each payload exactly once. Anything that is not an image
// (arbitrary bytes, or an image of a retired format version) degrades
// to fixed-size chunking; reconstruction is always exact.
//
// The chunk key is SHA-256, not the FNV-1a hash a chain image carries:
// FNV is fine for dirty detection (a collision re-emits or skips one
// shard of one chain, caught by the image trailer) but a storage key
// must not let two different payloads alias (and a standalone image
// carries no shard hash at all). The image body is stored untouched —
// the wire format does not change.
//
// This package speaks io.Writer and byte slices only; crac.NewCASStore
// adapts it to the Store surface.
package cas

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// ChunkPrefix namespaces chunk entries inside a backing store; chunk
// names are ChunkPrefix + 64 hex digits of the SHA-256 key. Store
// listings shown to users filter the prefix out, and image names may
// not collide with it.
const ChunkPrefix = "cas-"

// manifestMagic heads every serialized manifest. It shares the "CRAC"
// family prefix but no image reader accepts it, so a manifest
// accidentally fed to dmtcp.ReadImage fails fast as ErrBadImage.
var manifestMagic = [8]byte{'C', 'R', 'A', 'C', 'C', 'A', 'S', '1'}

// imageMagicV3 mirrors the v3 image magic so the chunker can recognize
// shard-framed streams without importing the image package.
var imageMagicV3 = [8]byte{'C', 'R', 'A', 'C', 'I', 'M', 'G', '3'}

const (
	// rawChunkSize is the fixed chunk size for streams that are not v3
	// images — large enough to amortize per-chunk overhead, small
	// enough that partial overlap still dedups.
	rawChunkSize = 256 << 10
	// tailInlineMax bounds how much post-shard data (normally just the
	// 24-byte integrity trailer) stays inline before the chunker
	// switches to raw chunks.
	tailInlineMax = 4 << 10
	// Decoder caps, mirroring the v3 reader's: a header field beyond
	// them cannot come from our writer, so the chunker stops trusting
	// the structure and falls back to raw chunking.
	maxItemCount  = 1 << 20
	maxFrameBytes = 1 << 30
	// maxSegments bounds manifest decode against a hostile segment
	// count claim.
	maxSegments = 1 << 22
	// maxInlineSeg bounds one inline segment's length claim on decode.
	maxInlineSeg = 1 << 30
)

// ErrBadManifest reports bytes that are not a valid serialized
// manifest.
var ErrBadManifest = errors.New("cas: bad manifest")

// ChunkName returns the store name of the chunk keyed by sum.
func ChunkName(sum [32]byte) string {
	b := make([]byte, len(ChunkPrefix)+2*len(sum))
	copy(b, ChunkPrefix)
	hex.Encode(b[len(ChunkPrefix):], sum[:])
	return string(b)
}

// IsChunkName reports whether a store name is a chunk entry (as
// opposed to an image or manifest). Stores layered over a chunk
// namespace use it to hide chunks from listings and retention.
func IsChunkName(name string) bool {
	if len(name) != len(ChunkPrefix)+64 || name[:len(ChunkPrefix)] != ChunkPrefix {
		return false
	}
	for i := len(ChunkPrefix); i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// IsManifestHeader reports whether prefix begins with the manifest
// magic (prefix may be longer than the magic).
func IsManifestHeader(prefix []byte) bool {
	return len(prefix) >= len(manifestMagic) && bytes.Equal(prefix[:len(manifestMagic)], manifestMagic[:])
}

// Segment is one piece of a manifest: either literal inline bytes or a
// reference to a content-addressed chunk. The original stream is the
// concatenation of all segments in order.
type Segment struct {
	// Inline carries the segment's bytes directly; nil for a chunk
	// reference.
	Inline []byte
	// Sum is the SHA-256 key of the referenced chunk (chunk segments
	// only).
	Sum [32]byte
	// Length is the segment's size in the reconstructed stream. For a
	// chunk segment it equals the stored chunk's size.
	Length uint64
}

// IsChunk reports whether the segment references a chunk.
func (s *Segment) IsChunk() bool { return s.Inline == nil }

// ChunkName returns the store name of the referenced chunk.
func (s *Segment) ChunkName() string { return ChunkName(s.Sum) }

// Manifest is the content-addressed form of one stored image: the
// lineage metadata a retention or verification pass needs without
// touching any chunk, plus the segment list that reproduces the
// original stream.
type Manifest struct {
	// Version is the image format version the chunker recognized (3),
	// or 0 for an opaque stream chunked at fixed size.
	Version int
	// Delta / Parent / Depth mirror the v3 image prologue, so lineage
	// walks (retention closures, chain verification planning) read the
	// manifest alone. Zero values for opaque streams.
	Delta  bool
	Parent string
	Depth  int
	// Length is the total reconstructed stream size.
	Length uint64
	// Segments reproduce the stream in order.
	Segments []Segment
}

// ChunkRefs returns the names of every chunk the manifest references,
// in stream order (duplicates preserved).
func (m *Manifest) ChunkRefs() []string {
	var out []string
	for i := range m.Segments {
		if m.Segments[i].IsChunk() {
			out = append(out, m.Segments[i].ChunkName())
		}
	}
	return out
}

// Encode serializes the manifest.
func (m *Manifest) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.Write(manifestMagic[:])
	var flags byte
	if m.Delta {
		flags |= 2
	}
	bw.WriteByte(byte(m.Version))
	bw.WriteByte(flags)
	if len(m.Parent) > 0xffff {
		return fmt.Errorf("cas: parent name too long (%d)", len(m.Parent))
	}
	var u [8]byte
	binary.LittleEndian.PutUint16(u[:2], uint16(len(m.Parent)))
	bw.Write(u[:2])
	bw.WriteString(m.Parent)
	binary.LittleEndian.PutUint32(u[:4], uint32(m.Depth))
	bw.Write(u[:4])
	binary.LittleEndian.PutUint64(u[:], m.Length)
	bw.Write(u[:])
	binary.LittleEndian.PutUint32(u[:4], uint32(len(m.Segments)))
	bw.Write(u[:4])
	for i := range m.Segments {
		seg := &m.Segments[i]
		if seg.IsChunk() {
			bw.WriteByte(1)
			bw.Write(seg.Sum[:])
			binary.LittleEndian.PutUint32(u[:4], uint32(seg.Length))
			bw.Write(u[:4])
			continue
		}
		bw.WriteByte(0)
		binary.LittleEndian.PutUint32(u[:4], uint32(len(seg.Inline)))
		bw.Write(u[:4])
		bw.Write(seg.Inline)
	}
	return bw.Flush()
}

// ReadManifestMeta parses only a manifest's prologue — format version,
// lineage, total length — without decoding the segment list. Lineage
// walks over stores holding manifests use it the way
// dmtcp.ReadImageMeta serves plain images.
func ReadManifestMeta(r io.Reader) (*Manifest, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrBadManifest, err)
	}
	if !bytes.Equal(hdr[:], manifestMagic[:]) {
		return nil, fmt.Errorf("%w: magic %q", ErrBadManifest, hdr[:])
	}
	var vf [2]byte
	if _, err := io.ReadFull(r, vf[:]); err != nil {
		return nil, fmt.Errorf("%w: version: %v", ErrBadManifest, err)
	}
	m := &Manifest{Version: int(vf[0]), Delta: vf[1]&2 != 0}
	var u [8]byte
	if _, err := io.ReadFull(r, u[:2]); err != nil {
		return nil, fmt.Errorf("%w: parent: %v", ErrBadManifest, err)
	}
	if n := binary.LittleEndian.Uint16(u[:2]); n > 0 {
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("%w: parent: %v", ErrBadManifest, err)
		}
		m.Parent = string(b)
	}
	if _, err := io.ReadFull(r, u[:4]); err != nil {
		return nil, fmt.Errorf("%w: depth: %v", ErrBadManifest, err)
	}
	m.Depth = int(binary.LittleEndian.Uint32(u[:4]))
	if _, err := io.ReadFull(r, u[:]); err != nil {
		return nil, fmt.Errorf("%w: length: %v", ErrBadManifest, err)
	}
	m.Length = binary.LittleEndian.Uint64(u[:])
	return m, nil
}

// DecodeManifest parses a full manifest, segments included, and
// verifies that the segment lengths add up to the recorded stream
// length.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	m, err := ReadManifestMeta(r)
	if err != nil {
		return nil, err
	}
	var u [4]byte
	if _, err := io.ReadFull(r, u[:]); err != nil {
		return nil, fmt.Errorf("%w: segment count: %v", ErrBadManifest, err)
	}
	nSegs := binary.LittleEndian.Uint32(u[:])
	if nSegs > maxSegments {
		return nil, fmt.Errorf("%w: segment count %d", ErrBadManifest, nSegs)
	}
	var total uint64
	m.Segments = make([]Segment, 0, min(nSegs, 1<<12)) // the count is only a claim too
	for i := uint32(0); i < nSegs; i++ {
		var kind [1]byte
		if _, err := io.ReadFull(r, kind[:]); err != nil {
			return nil, fmt.Errorf("%w: segment %d: %v", ErrBadManifest, i, err)
		}
		switch kind[0] {
		case 0:
			if _, err := io.ReadFull(r, u[:]); err != nil {
				return nil, fmt.Errorf("%w: segment %d: %v", ErrBadManifest, i, err)
			}
			n := binary.LittleEndian.Uint32(u[:])
			if n == 0 || n > maxInlineSeg {
				return nil, fmt.Errorf("%w: segment %d inline length %d", ErrBadManifest, i, n)
			}
			var b []byte // grows as the bytes arrive: the length is only a claim
			for len(b) < int(n) && err == nil {
				k := min(int(n)-len(b), max(len(b), 64<<10))
				b = slices.Grow(b, k)[:len(b)+k]
				_, err = io.ReadFull(r, b[len(b)-k:])
			}
			if err != nil {
				return nil, fmt.Errorf("%w: segment %d: %v", ErrBadManifest, i, err)
			}
			m.Segments = append(m.Segments, Segment{Inline: b, Length: uint64(n)})
			total += uint64(n)
		case 1:
			var seg Segment
			if _, err := io.ReadFull(r, seg.Sum[:]); err != nil {
				return nil, fmt.Errorf("%w: segment %d: %v", ErrBadManifest, i, err)
			}
			if _, err := io.ReadFull(r, u[:]); err != nil {
				return nil, fmt.Errorf("%w: segment %d: %v", ErrBadManifest, i, err)
			}
			n := binary.LittleEndian.Uint32(u[:])
			if n == 0 || n > maxFrameBytes {
				return nil, fmt.Errorf("%w: segment %d chunk length %d", ErrBadManifest, i, n)
			}
			seg.Length = uint64(n)
			// A chunk reference must carry a non-nil (if empty-capacity)
			// Inline==nil marker; Sum/Length suffice.
			m.Segments = append(m.Segments, seg)
			total += uint64(n)
		default:
			return nil, fmt.Errorf("%w: segment %d kind %d", ErrBadManifest, i, kind[0])
		}
	}
	if total != m.Length {
		return nil, fmt.Errorf("%w: segments cover %d bytes, manifest claims %d", ErrBadManifest, total, m.Length)
	}
	return m, nil
}

// chunkBufPool recycles chunk staging buffers across images, so a
// steady checkpoint cadence hashes and stages without allocating.
var chunkBufPool sync.Pool

// getBuf returns a pooled buffer with at least n usable bytes.
func getBuf(n int) *[]byte {
	if bp, _ := chunkBufPool.Get().(*[]byte); bp != nil && cap(*bp) >= n {
		*bp = (*bp)[:cap(*bp)]
		return bp
	}
	b := make([]byte, n)
	return &b
}

// ReleaseBuf returns a staging buffer handed to a Sink back to the
// pool. Safe on nil.
func ReleaseBuf(bp *[]byte) {
	if bp != nil {
		chunkBufPool.Put(bp)
	}
}

// Sink receives one completed chunk: name is the chunk's store name
// (ChunkName of the content key), and the chunk's bytes are
// (*buf)[:n]. Ownership of buf transfers to the sink, which must pass
// it to ReleaseBuf once the bytes are no longer needed — immediately
// for a dedup hit, after upload otherwise.
type Sink func(name string, buf *[]byte, n int) error

// parser states of the v3-aware chunker.
type parseState int

const (
	stMagic        parseState = iota // 8 bytes: image magic
	stFlags                          // 4 bytes
	stParentLen                      // 2 bytes
	stParentStr                      // parent name
	stIDs                            // depth u32 + selfID u64 + parentID u64
	stRegionCount                    // u32
	stRegionFixed                    // start u64 + len u64 + prot byte
	stRegionLblLen                   // u16
	stRegionLblStr                   // label
	stSectionCount                   // u32
	stSecNameLen                     // u16
	stSecNameStr                     // name
	stSecFixed                       // size u64 + flags byte
	stShardMeta                      // shardSize u32 + shardCount u32
	stShardHdr                       // 28-byte v3 frame header
	stShardPayload                   // encLen chunk bytes
	stTail                           // post-shard bytes (trailer), inline
	stRaw                            // fixed-size fallback chunking
)

// Chunker splits a stream written into it into content-addressed
// chunks, emitting each through the sink and accumulating the
// manifest. It is an io.Writer; call Finish after the last Write.
//
// The hot path — staging a shard payload and hashing it — runs on
// pooled buffers and the allocation-free sha256.Sum256, so chunking
// adds no per-byte allocations to the checkpoint write path.
type Chunker struct {
	sink Sink
	man  Manifest

	st   parseState
	need int    // token bytes outstanding in a structured state
	tok  []byte // token accumulator
	err  error

	inline  []byte // pending inline bytes (flushed at chunk boundaries)
	tailLen int

	stage    *[]byte // staging buffer of the chunk being accumulated
	staged   int
	chunkLen int

	remRegions  uint32
	remSections uint32
	remShards   uint32

	total    uint64
	finished bool
}

// NewChunker returns a chunker emitting chunks into sink (which may be
// nil: chunks are then dropped after keying, useful for dry-run
// dedup analysis).
func NewChunker(sink Sink) *Chunker {
	c := &Chunker{sink: sink}
	c.setTok(stMagic, len(imageMagicV3))
	return c
}

func (c *Chunker) setTok(st parseState, need int) {
	c.st = st
	c.need = need
	c.tok = c.tok[:0]
}

// flushInline closes the pending inline run into a segment.
func (c *Chunker) flushInline() {
	if len(c.inline) > 0 {
		c.man.Segments = append(c.man.Segments, Segment{Inline: c.inline, Length: uint64(len(c.inline))})
		c.inline = nil
	}
}

// enterRaw abandons structured parsing: all further input is chunked
// at fixed size. Bytes already inlined stay inline. The token that led
// here was consumed by step (and inlined there), so it must not linger
// for Finish to inline again.
func (c *Chunker) enterRaw() {
	c.st = stRaw
	c.tok = c.tok[:0]
	c.chunkLen = rawChunkSize
	c.staged = 0
	c.stage = getBuf(rawChunkSize)
}

// beginChunk starts staging one shard payload of n bytes (same token
// hygiene as enterRaw).
func (c *Chunker) beginChunk(n int) {
	c.st = stShardPayload
	c.tok = c.tok[:0]
	c.chunkLen = n
	c.staged = 0
	c.stage = getBuf(n)
}

// emitChunk keys and hands off the staged chunk, then advances.
func (c *Chunker) emitChunk() error {
	data := (*c.stage)[:c.staged]
	sum := sha256.Sum256(data)
	c.flushInline()
	c.man.Segments = append(c.man.Segments, Segment{Sum: sum, Length: uint64(c.staged)})
	buf, n := c.stage, c.staged
	c.stage, c.staged = nil, 0
	if c.sink != nil {
		if err := c.sink(ChunkName(sum), buf, n); err != nil {
			return err
		}
	} else {
		ReleaseBuf(buf)
	}
	switch c.st {
	case stShardPayload:
		c.remShards--
		c.nextShardOrTail()
	case stRaw:
		c.chunkLen = rawChunkSize
		c.stage = getBuf(rawChunkSize)
	}
	return nil
}

func (c *Chunker) nextRegionOrSections() {
	if c.remRegions > 0 {
		c.setTok(stRegionFixed, 17)
	} else {
		c.setTok(stSectionCount, 4)
	}
}

func (c *Chunker) nextSectionOrShards() {
	if c.remSections > 0 {
		c.setTok(stSecNameLen, 2)
	} else {
		c.setTok(stShardMeta, 8)
	}
}

func (c *Chunker) nextShardOrTail() {
	if c.remShards > 0 {
		c.setTok(stShardHdr, 28)
	} else {
		c.st = stTail
		c.tok = c.tok[:0]
		c.tailLen = 0
	}
}

// step consumes one completed token. The token's bytes are part of the
// reconstructed stream, so they always land inline; only shard
// payloads become chunks.
func (c *Chunker) step() error {
	tok := c.tok
	c.inline = append(c.inline, tok...)
	switch c.st {
	case stMagic:
		if !bytes.Equal(tok, imageMagicV3[:]) {
			c.enterRaw()
			return nil
		}
		c.man.Version = 3
		c.setTok(stFlags, 4)
	case stFlags:
		c.man.Delta = tok[0]&2 != 0
		c.setTok(stParentLen, 2)
	case stParentLen:
		if n := int(binary.LittleEndian.Uint16(tok)); n > 0 {
			c.setTok(stParentStr, n)
		} else {
			c.setTok(stIDs, 20)
		}
	case stParentStr:
		c.man.Parent = string(tok)
		c.setTok(stIDs, 20)
	case stIDs:
		c.man.Depth = int(binary.LittleEndian.Uint32(tok[0:4]))
		c.setTok(stRegionCount, 4)
	case stRegionCount:
		n := binary.LittleEndian.Uint32(tok)
		if n > maxItemCount {
			c.enterRaw()
			return nil
		}
		c.remRegions = n
		c.nextRegionOrSections()
	case stRegionFixed:
		c.setTok(stRegionLblLen, 2)
	case stRegionLblLen:
		if n := int(binary.LittleEndian.Uint16(tok)); n > 0 {
			c.setTok(stRegionLblStr, n)
		} else {
			c.remRegions--
			c.nextRegionOrSections()
		}
	case stRegionLblStr:
		c.remRegions--
		c.nextRegionOrSections()
	case stSectionCount:
		n := binary.LittleEndian.Uint32(tok)
		if n > maxItemCount {
			c.enterRaw()
			return nil
		}
		c.remSections = n
		c.nextSectionOrShards()
	case stSecNameLen:
		if n := int(binary.LittleEndian.Uint16(tok)); n > 0 {
			c.setTok(stSecNameStr, n)
		} else {
			c.setTok(stSecFixed, 9)
		}
	case stSecNameStr:
		c.setTok(stSecFixed, 9)
	case stSecFixed:
		c.remSections--
		c.nextSectionOrShards()
	case stShardMeta:
		shardSize := binary.LittleEndian.Uint32(tok[0:4])
		shardCount := binary.LittleEndian.Uint32(tok[4:8])
		if shardSize == 0 || shardSize > maxFrameBytes || shardCount > maxItemCount {
			c.enterRaw()
			return nil
		}
		c.remShards = shardCount
		c.nextShardOrTail()
	case stShardHdr:
		encLen := binary.LittleEndian.Uint32(tok[16:20])
		if encLen == 0 || encLen > maxFrameBytes {
			c.enterRaw()
			return nil
		}
		c.beginChunk(int(encLen))
	default:
		return fmt.Errorf("cas: internal: step in state %d", c.st)
	}
	return nil
}

// Write implements io.Writer.
func (c *Chunker) Write(p []byte) (int, error) {
	if c.finished {
		return 0, errors.New("cas: Write after Finish")
	}
	if c.err != nil {
		return 0, c.err
	}
	total := len(p)
	for len(p) > 0 {
		switch c.st {
		case stShardPayload, stRaw:
			n := c.chunkLen - c.staged
			if n > len(p) {
				n = len(p)
			}
			copy((*c.stage)[c.staged:], p[:n])
			c.staged += n
			c.total += uint64(n)
			p = p[n:]
			if c.staged == c.chunkLen {
				if err := c.emitChunk(); err != nil {
					c.err = err
					return total - len(p), err
				}
			}
		case stTail:
			if c.tailLen+len(p) > tailInlineMax {
				// More tail than any trailer: stop inlining, chunk it.
				c.enterRaw()
				continue
			}
			c.inline = append(c.inline, p...)
			c.tailLen += len(p)
			c.total += uint64(len(p))
			p = nil
		default:
			n := c.need - len(c.tok)
			if n > len(p) {
				n = len(p)
			}
			c.tok = append(c.tok, p[:n]...)
			c.total += uint64(n)
			p = p[n:]
			if len(c.tok) == c.need {
				if err := c.step(); err != nil {
					c.err = err
					return total - len(p), err
				}
			}
		}
	}
	return total, nil
}

// Finish closes the stream and returns the manifest. A stream that
// ended mid-token or mid-shard (a truncated or foreign input) still
// reconstructs exactly: the partial bytes land inline.
func (c *Chunker) Finish() (*Manifest, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.finished {
		return nil, errors.New("cas: Finish twice")
	}
	c.finished = true
	if len(c.tok) > 0 {
		c.inline = append(c.inline, c.tok...)
		c.tok = nil
	}
	if c.staged > 0 {
		switch c.st {
		case stRaw:
			// A short final raw chunk is a complete chunk.
			if err := c.emitChunk(); err != nil {
				c.err = err
				return nil, err
			}
		case stShardPayload:
			// Truncated shard payload: keep it inline so the manifest
			// reproduces the (broken) stream exactly.
			c.inline = append(c.inline, (*c.stage)[:c.staged]...)
			ReleaseBuf(c.stage)
			c.stage = nil
			c.staged = 0
		}
	} else if c.stage != nil {
		ReleaseBuf(c.stage)
		c.stage = nil
	}
	c.flushInline()
	c.man.Length = c.total
	return &c.man, nil
}
