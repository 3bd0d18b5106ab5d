// Incremental checkpointing: the v3 ("CRACIMG3") image format.
//
// A v3 image is either a full *base* or a *delta* against a named
// parent image. Both carry the complete region and section header
// tables of the checkpointed state, followed by a set of payload
// shards, each addressed by (span, offset) — spans are the regions in
// address order, then the sections in insertion order — and stamped
// with an FNV-1a content hash. A base carries every shard; a delta
// carries only the dirty ones:
//
//   - region shards are dirty when the address space's page-granular
//     write-generation tracking (addrspace.Space.DirtySince) reports a
//     write after the previous checkpoint's epoch cut — clean shards
//     are never even read out of memory;
//   - section shards are dirty when their content hash differs from
//     the same shard of the previous checkpoint (the writer threads the
//     per-shard hash table forward through DeltaState), so append-only
//     sections like the replay log re-emit only their tail;
//   - sections marked opaque (SectionMap.MarkOpaque) are always
//     emitted in full: their owning plugin already delta-encodes the
//     bytes itself, and a registered SectionMerger resolves them at
//     materialization time.
//
// The shards still flow through the same worker pipeline as v2 — they
// compress and write in parallel, in deterministic order, so a v3 image
// is byte-identical for any worker count. Reading a delta back yields
// an unmaterialized Image; ApplyDelta / ResolveChain fold a base plus
// its deltas into the same complete Image a v2 image reads back as.
package dmtcp

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/addrspace"
	"repro/internal/par"
)

// shardHdrV3 is the fixed size of a v3 shard header:
// u32 span, u64 offset, u32 rawLen, u32 encLen, u64 hash.
const shardHdrV3 = 28

// MaxChainDepth bounds every parent walk over stored images: the writer
// rotates to a fresh base before a chain gets this deep, so a longer
// lineage can only be corrupt or hostile.
const MaxChainDepth = 512

// ErrDeltaChain reports an operation that needs a delta image's parent
// chain: restoring an unmaterialized delta, or resolving a chain whose
// parent is missing, cyclic, or deeper than MaxChainDepth.
var ErrDeltaChain = errors.New("dmtcp: delta image requires its parent chain")

// A ChainWalk guards every parent walk over stored images: each step
// must name a parent the walk has not visited, within MaxChainDepth
// links of its start, the walk's one initial member.
type ChainWalk map[string]bool

// Step admits the next parent, or reports the lineage broken there.
func (w ChainWalk) Step(parent string) error {
	if parent == "" || w[parent] || len(w) > MaxChainDepth {
		return fmt.Errorf("%w: broken lineage at %q", ErrDeltaChain, parent)
	}
	w[parent] = true
	return nil
}

// DeltaState is the writer-side lineage state of an incremental
// checkpoint chain. The caller (a crac.Session) holds the state of the
// chain tip and threads it through FreezeCheckpoint; passing nil writes
// a fresh full base. The state must only be committed after the image
// has durably landed — an abandoned write must not advance the chain.
type DeltaState struct {
	// Name is the store name of the image this state describes; the next
	// delta records it as its parent.
	Name string
	// ID is the image's content-derived identity (see imageID); the
	// next delta records it so materialization can detect a parent
	// name rebound to different content.
	ID uint64
	// Depth is the image's distance from the chain's base (0 = base).
	Depth int
	// Cut is the address-space write epoch taken at this checkpoint;
	// the next delta emits region pages written after it.
	Cut uint64
	// ShardSize is the shard grid the chain was written with. A
	// different engine shard size breaks hash comparability, so
	// the freeze rotates to a new base when it changes.
	ShardSize int
	// Hashes holds the per-shard FNV-1a table of every section at this
	// checkpoint, keyed by section name.
	Hashes map[string][]uint64
	// Ancestry lists every image name in the chain, base first and
	// ending with Name. Callers use it to refuse (or rotate away from)
	// writing a new image under a name the chain still depends on —
	// overwriting an ancestor would silently destroy the lineage.
	Ancestry []string
}

// InChain reports whether name is one of the chain's image names.
func (s *DeltaState) InChain(name string) bool {
	for _, n := range s.Ancestry {
		if n == name {
			return true
		}
	}
	return false
}

// SectionMerger materializes one opaque section of a delta image:
// parent is the section's bytes in the materialized parent chain (nil
// if absent), delta the bytes carried by the delta image; the result is
// the section's complete content.
type SectionMerger func(parent, delta []byte) ([]byte, error)

// deltaSection is one section-table entry of a v3 image.
type deltaSection struct {
	name   string
	size   uint64
	opaque bool
}

// deltaShard is one decoded, not-yet-applied shard of a v3 delta.
type deltaShard struct {
	span int
	off  uint64
	hash uint64
	data []byte
}

// DeltaInfo describes the v3 lineage of an Image.
type DeltaInfo struct {
	// Parent names the image this delta applies on top of ("" for a
	// base).
	Parent string
	// Depth is the image's distance from the chain's base.
	Depth int
	// ShardsTotal / RawTotal cover the full span layout; ShardsEmitted /
	// RawEmitted the shards the image actually carries.
	ShardsTotal   int
	ShardsEmitted int
	RawTotal      uint64
	RawEmitted    uint64
	// Materialized reports that the image carries its complete payload:
	// true for a base, and for a delta after ApplyDelta/ResolveChain.
	Materialized bool

	id        uint64 // content-derived image identity (0: unknown)
	parentID  uint64 // recorded identity of the parent (0: none)
	shardSize int
	secs      []deltaSection
	shards    []deltaShard // nil once materialized
}

// ID returns the image's content-derived identity (0 when unknown —
// e.g. a materialized image assembled in memory).
func (d *DeltaInfo) ID() uint64 { return d.id }

// ParentID returns the recorded identity of the parent image (0 for a
// base). Chain verification matches it against the parent's ID to
// catch a swapped or regenerated parent whose name still matches.
func (d *DeltaInfo) ParentID() uint64 { return d.parentID }

// DirtyRatio is RawEmitted over RawTotal (1 for an empty layout).
func (d *DeltaInfo) DirtyRatio() float64 {
	if d.RawTotal == 0 {
		return 1
	}
	return float64(d.RawEmitted) / float64(d.RawTotal)
}

// SectionHdr is one entry of a v3 image's section table.
type SectionHdr struct {
	Name   string
	Size   uint64
	Opaque bool
}

// SectionLayout returns the image's section table — available even for
// an unmaterialized delta, whose Sections map is still empty.
func (d *DeltaInfo) SectionLayout() []SectionHdr {
	out := make([]SectionHdr, len(d.secs))
	for i, s := range d.secs {
		out[i] = SectionHdr{Name: s.name, Size: s.size, Opaque: s.opaque}
	}
	return out
}

// fnvSum64 is the shard content hash (FNV-1a 64).
func fnvSum64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// hashSections computes the per-shard FNV-1a table of every section,
// fanning the shard hashing out across workers.
func hashSections(sections *SectionMap, names []string, shard, workers int) map[string][]uint64 {
	out := make(map[string][]uint64, len(names))
	type hashJob struct {
		data []byte
		dst  *uint64
	}
	var jobs []hashJob
	for _, name := range names {
		data, _ := sections.Get(name)
		hs := make([]uint64, (len(data)+shard-1)/shard)
		for i := range hs {
			lo := i * shard
			hi := lo + shard
			if hi > len(data) {
				hi = len(data)
			}
			jobs = append(jobs, hashJob{data: data[lo:hi], dst: &hs[i]})
		}
		out[name] = hs
	}
	par.ForErrN(workers, len(jobs), func(i int) error {
		*jobs[i].dst = fnvSum64(jobs[i].data)
		return nil
	})
	return out
}

// imageID derives a deterministic identity for a v3 image from its
// lineage and section content hashes. With the CRAC plugin registered
// the replay log section grows on every checkpoint, so two distinct
// checkpoints of one session never share an ID; equal IDs imply equal
// lineage and section state, where confusion is harmless.
func imageID(parentID uint64, depth int, cut uint64, names []string, secHashes map[string][]uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []uint64{parentID, uint64(depth), cut} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, name := range names {
		io.WriteString(h, name)
		for _, sh := range secHashes[name] {
			binary.LittleEndian.PutUint64(b[:], sh)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// writeImageV3 emits the v3 header tables and the emitted shard set
// through the shared worker pipeline.
func (e *Engine) writeImageV3(ctx context.Context, w io.Writer, view addrspace.View, regions []addrspace.RegionInfo, sections *SectionMap, prev *DeltaState, selfName string, cut, since uint64, st *Stats) (*DeltaState, error) {
	delta := prev != nil
	parent := ""
	depth := 0
	var parentID uint64
	if delta {
		parent = prev.Name
		depth = prev.Depth + 1
		parentID = prev.ID
	}
	shard := e.shardSize()
	names := sections.Names()
	// Hash every section shard (in parallel) before the header goes
	// out: the hashes decide which section shards a delta emits, stamp
	// the emitted frames, feed the image's identity, and become the
	// table the next delta compares against.
	secHashes := hashSections(sections, names, shard, e.Workers)
	// The image identity is derived from lineage and content, not
	// randomness, so images stay byte-deterministic: two images collide
	// only when their lineage and section state (including the
	// ever-growing call log) are identical — in which case confusing
	// them is harmless. ApplyDelta verifies a delta's recorded parent
	// identity against the image it is applied to, so a parent name
	// overwritten with different content fails the restore instead of
	// silently mixing states.
	selfID := imageID(parentID, depth, cut, names, secHashes)

	if _, err := w.Write(imageMagicV3[:]); err != nil {
		return nil, err
	}
	var flags [4]byte
	if e.Gzip {
		flags[0] |= 1
	}
	if delta {
		flags[0] |= 2
	}
	if _, err := w.Write(flags[:]); err != nil {
		return nil, err
	}
	if err := writeString(w, parent); err != nil {
		return nil, err
	}
	var u32 [4]byte
	var u64b [8]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(depth))
	if _, err := w.Write(u32[:]); err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(u64b[:], selfID)
	if _, err := w.Write(u64b[:]); err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(u64b[:], parentID)
	if _, err := w.Write(u64b[:]); err != nil {
		return nil, err
	}

	// Header tables, exactly as in v2 (sections additionally carry an
	// opaque flag), so the reader can lay out every destination before
	// the first shard arrives.
	binary.LittleEndian.PutUint32(u32[:], uint32(len(regions)))
	if _, err := w.Write(u32[:]); err != nil {
		return nil, err
	}
	for _, ri := range regions {
		binary.LittleEndian.PutUint64(u64b[:], ri.Start)
		if _, err := w.Write(u64b[:]); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint64(u64b[:], ri.Len)
		if _, err := w.Write(u64b[:]); err != nil {
			return nil, err
		}
		if _, err := w.Write([]byte{byte(ri.Prot)}); err != nil {
			return nil, err
		}
		if err := writeString(w, ri.Label); err != nil {
			return nil, err
		}
		st.RegionBytes += ri.Len
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(len(names)))
	if _, err := w.Write(u32[:]); err != nil {
		return nil, err
	}
	for _, name := range names {
		data, _ := sections.Get(name)
		if err := writeString(w, name); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint64(u64b[:], uint64(len(data)))
		if _, err := w.Write(u64b[:]); err != nil {
			return nil, err
		}
		var sf byte
		if sections.Opaque(name) {
			sf |= 1
		}
		if _, err := w.Write([]byte{sf}); err != nil {
			return nil, err
		}
		st.SectionBytes += uint64(len(data))
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(shard))
	if _, err := w.Write(u32[:]); err != nil {
		return nil, err
	}

	// Region dirty spans since the parent's cut (page-granular, merged).
	var dirtyByStart map[uint64][]addrspace.Span
	if delta {
		dirtyByStart = make(map[uint64][]addrspace.Span)
		for _, rd := range view.DirtySince(addrspace.HalfUpper, since) {
			dirtyByStart[rd.Start] = rd.Spans
		}
	}
	overlaps := func(spans []addrspace.Span, off, n uint64) bool {
		idx := sort.Search(len(spans), func(i int) bool {
			return spans[i].Off+spans[i].Len > off
		})
		return idx < len(spans) && spans[idx].Off < off+n
	}

	// Shard plan: all spans in layout order, emitting a deterministic
	// dirty subset (the whole grid for a base).
	var jobs []shardJob
	spanIdx := uint32(0)
	for _, ri := range regions {
		spans := dirtyByStart[ri.Start] // nil for a base: emit all
		for off := uint64(0); off < ri.Len; off += uint64(shard) {
			n := ri.Len - off
			if n > uint64(shard) {
				n = uint64(shard)
			}
			st.ShardsTotal++
			st.PayloadTotal += n
			if delta && !overlaps(spans, off, n) {
				continue
			}
			jobs = append(jobs, shardJob{addr: ri.Start + off, rawLen: int(n),
				v3: true, spanIdx: spanIdx, spanOff: off, done: make(chan struct{})})
			st.PayloadWritten += n
		}
		spanIdx++
	}
	for _, name := range names {
		data, _ := sections.Get(name)
		hs := secHashes[name]
		var prevHs []uint64
		if delta {
			prevHs = prev.Hashes[name]
		}
		opaque := sections.Opaque(name)
		for si, off := 0, 0; off < len(data); si, off = si+1, off+shard {
			n := len(data) - off
			if n > shard {
				n = shard
			}
			st.ShardsTotal++
			st.PayloadTotal += uint64(n)
			if delta && !opaque && si < len(prevHs) && prevHs[si] == hs[si] {
				continue
			}
			jobs = append(jobs, shardJob{src: data[off : off+n], rawLen: n,
				v3: true, spanIdx: spanIdx, spanOff: uint64(off),
				hash: hs[si], hashed: true, done: make(chan struct{})})
			st.PayloadWritten += uint64(n)
		}
		spanIdx++
	}
	st.ShardsWritten = len(jobs)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(jobs)))
	if _, err := w.Write(u32[:]); err != nil {
		return nil, err
	}
	if err := e.runWritePipeline(ctx, w, view, jobs); err != nil {
		return nil, err
	}
	ancestry := []string{selfName}
	if prev != nil {
		ancestry = append(append([]string(nil), prev.Ancestry...), selfName)
	}
	return &DeltaState{
		Name:      selfName,
		ID:        selfID,
		Depth:     depth,
		Cut:       cut,
		ShardSize: shard,
		Hashes:    secHashes,
		Ancestry:  ancestry,
	}, nil
}

// readImageV3 parses a v3 image. A base materializes immediately; a
// delta parses its shards and waits for ApplyDelta/ResolveChain.
func readImageV3(r io.Reader) (*Image, error) {
	meta, err := readLineageV3(r)
	if err != nil {
		return nil, err
	}
	img := &Image{Version: 3, Gzip: meta.Gzip, Sections: NewSectionMap()}
	var u32 [4]byte
	var u64b [8]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: region count: %v", ErrBadImage, err)
	}
	nRegions := binary.LittleEndian.Uint32(u32[:])
	if nRegions > maxItemCount {
		return nil, fmt.Errorf("%w: region count %d", ErrBadImage, nRegions)
	}
	var totalRaw uint64
	for i := uint32(0); i < nRegions; i++ {
		var rd RegionData
		if _, err := io.ReadFull(r, u64b[:]); err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		rd.Start = binary.LittleEndian.Uint64(u64b[:])
		if _, err := io.ReadFull(r, u64b[:]); err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		rd.Len = binary.LittleEndian.Uint64(u64b[:])
		if rd.Len > maxItemBytes {
			return nil, fmt.Errorf("%w: region %d len %d", ErrBadImage, i, rd.Len)
		}
		var prot [1]byte
		if _, err := io.ReadFull(r, prot[:]); err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		rd.Prot = addrspace.Prot(prot[0])
		label, err := readString(r)
		if err != nil {
			return nil, fmt.Errorf("%w: region %d label: %v", ErrBadImage, i, err)
		}
		rd.Label = label
		totalRaw += rd.Len
		img.Regions = append(img.Regions, rd)
	}
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: section count: %v", ErrBadImage, err)
	}
	nSections := binary.LittleEndian.Uint32(u32[:])
	if nSections > maxItemCount {
		return nil, fmt.Errorf("%w: section count %d", ErrBadImage, nSections)
	}
	secs := make([]deltaSection, 0, nSections)
	for i := uint32(0); i < nSections; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, fmt.Errorf("%w: section %d name: %v", ErrBadImage, i, err)
		}
		if _, err := io.ReadFull(r, u64b[:]); err != nil {
			return nil, fmt.Errorf("%w: section %d size: %v", ErrBadImage, i, err)
		}
		n := binary.LittleEndian.Uint64(u64b[:])
		if n > maxItemBytes {
			return nil, fmt.Errorf("%w: section %d len %d", ErrBadImage, i, n)
		}
		var sf [1]byte
		if _, err := io.ReadFull(r, sf[:]); err != nil {
			return nil, fmt.Errorf("%w: section %d flags: %v", ErrBadImage, i, err)
		}
		secs = append(secs, deltaSection{name: name, size: n, opaque: sf[0]&1 != 0})
		totalRaw += n
	}
	if totalRaw > maxTotalBytes {
		return nil, fmt.Errorf("%w: payload too large (%d bytes)", ErrBadImage, totalRaw)
	}
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: shard size: %v", ErrBadImage, err)
	}
	shardSize := binary.LittleEndian.Uint32(u32[:])
	if shardSize == 0 || shardSize > maxFrameBytes {
		return nil, fmt.Errorf("%w: shard size %d", ErrBadImage, shardSize)
	}
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: shard count: %v", ErrBadImage, err)
	}
	shardCount := binary.LittleEndian.Uint32(u32[:])
	if shardCount > maxItemCount {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadImage, shardCount)
	}

	// Span layout: regions in table order, then sections.
	type span struct {
		size uint64
		base uint64 // global raw offset
		dst  *[]byte
	}
	secData := make([][]byte, len(secs))
	spans := make([]span, 0, len(img.Regions)+len(secs))
	var off uint64
	shardsTotal := 0
	for i := range img.Regions {
		spans = append(spans, span{size: img.Regions[i].Len, base: off, dst: &img.Regions[i].Data})
		off += img.Regions[i].Len
		shardsTotal += int((img.Regions[i].Len + uint64(shardSize) - 1) / uint64(shardSize))
	}
	for i := range secs {
		spans = append(spans, span{size: secs[i].size, base: off, dst: &secData[i]})
		off += secs[i].size
		shardsTotal += int((secs[i].size + uint64(shardSize) - 1) / uint64(shardSize))
	}

	di := &DeltaInfo{
		Parent: meta.Parent, Depth: meta.Depth,
		ShardsTotal: shardsTotal, ShardsEmitted: int(shardCount),
		RawTotal: totalRaw,
		id:       meta.ID, parentID: meta.ParentID,
		shardSize: int(shardSize), secs: secs,
	}
	img.Delta = di

	// Shard records. A base must tile the whole layout exactly (the
	// writer emits every shard, in span order); a delta's shards must be
	// strictly ascending and non-overlapping.
	type pending struct {
		span   int
		off    uint64
		rawLen int
		hash   uint64
		enc    []byte // compressed payload, or nil when already in dst
		dst    []byte // destination slice (base: span memory; delta: own buffer)
	}
	frames := make([]pending, 0, shardCount)
	var expected uint64 // base: next global offset
	var prevEnd uint64  // delta: end of the previous shard's global range
	for i := uint32(0); i < shardCount; i++ {
		var hdr [shardHdrV3]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: shard %d header: %v", ErrBadImage, i, err)
		}
		sp := binary.LittleEndian.Uint32(hdr[0:])
		so := binary.LittleEndian.Uint64(hdr[4:])
		rawLen := binary.LittleEndian.Uint32(hdr[12:])
		encLen := binary.LittleEndian.Uint32(hdr[16:])
		hash := binary.LittleEndian.Uint64(hdr[20:])
		if int(sp) >= len(spans) || rawLen == 0 || uint64(rawLen) > uint64(shardSize) ||
			encLen == 0 || encLen > maxFrameBytes ||
			so+uint64(rawLen) < so || so+uint64(rawLen) > spans[sp].size {
			return nil, fmt.Errorf("%w: shard %d (span %d, off %d, %d/%d bytes)", ErrBadImage, i, sp, so, rawLen, encLen)
		}
		global := spans[sp].base + so
		if !meta.Delta {
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
		f := pending{span: int(sp), off: so, rawLen: int(rawLen), hash: hash}
		if !meta.Delta {
			if *spans[sp].dst == nil {
				*spans[sp].dst = make([]byte, spans[sp].size)
			}
			f.dst = (*spans[sp].dst)[so : so+uint64(rawLen)]
		} else {
			f.dst = make([]byte, rawLen)
		}
		if !img.Gzip {
			if encLen != rawLen {
				return nil, fmt.Errorf("%w: stored shard %d != %d", ErrBadImage, encLen, rawLen)
			}
			if _, err := io.ReadFull(r, f.dst); err != nil {
				return nil, fmt.Errorf("%w: shard %d data: %v", ErrBadImage, i, err)
			}
		} else {
			enc, err := readExact(r, uint64(encLen))
			if err != nil {
				return nil, fmt.Errorf("%w: shard %d data: %v", ErrBadImage, i, err)
			}
			f.enc = enc
		}
		di.RawEmitted += uint64(rawLen)
		frames = append(frames, f)
	}
	if !meta.Delta && expected != totalRaw {
		return nil, fmt.Errorf("%w: base image covers %d of %d payload bytes", ErrBadImage, expected, totalRaw)
	}

	// Inflate (each shard is an independent gzip member) and verify the
	// content hashes, in parallel across shards.
	if err := par.ForErr(len(frames), func(i int) error {
		f := &frames[i]
		if f.enc != nil {
			if err := gunzipInto(f.dst, f.enc); err != nil {
				return fmt.Errorf("%w: shard %d: %v", ErrBadImage, i, err)
			}
			f.enc = nil
		}
		if fnvSum64(f.dst) != f.hash {
			return fmt.Errorf("%w: shard %d content hash mismatch", ErrCorruptImage, i)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if !meta.Delta {
		// A base is complete: publish the sections (zero-size ones too)
		// and drop the shard bookkeeping.
		for i, sec := range secs {
			if secData[i] == nil {
				secData[i] = make([]byte, sec.size)
			}
			img.Sections.Add(sec.name, secData[i])
			if sec.opaque {
				img.Sections.MarkOpaque(sec.name)
			}
		}
		di.Materialized = true
		return img, nil
	}
	di.shards = make([]deltaShard, len(frames))
	for i, f := range frames {
		di.shards[i] = deltaShard{span: f.span, off: f.off, hash: f.hash, data: f.dst}
	}
	return img, nil
}

// gunzipInto inflates one gzip member into exactly dst.
func gunzipInto(dst, enc []byte) error {
	gz, err := gzip.NewReader(bytes.NewReader(enc))
	if err != nil {
		return fmt.Errorf("gzip: %v", err)
	}
	defer gz.Close()
	gz.Multistream(false)
	if _, err := io.ReadFull(gz, dst); err != nil {
		return err
	}
	var tail [1]byte
	if n, _ := gz.Read(tail[:]); n != 0 {
		return errors.New("trailing bytes in shard")
	}
	return nil
}

// ApplyDelta materializes delta on top of its (already materialized)
// parent image: the delta's region and section tables are authoritative
// for the result's layout; clean region bytes inherit from the parent
// by absolute address, clean section bytes by name and offset, and the
// delta's shards overwrite the dirty ranges. Opaque sections resolve
// through the registered merger instead (absent a merger, the delta's
// own bytes are used verbatim).
func ApplyDelta(parent, delta *Image, mergers map[string]SectionMerger) (*Image, error) {
	d := delta.Delta
	if d == nil {
		return nil, fmt.Errorf("%w: ApplyDelta on a non-delta image", ErrBadImage)
	}
	if d.Materialized {
		return delta, nil
	}
	if parent == nil || !parent.Complete() {
		return nil, fmt.Errorf("%w: parent %q is not materialized", ErrDeltaChain, d.Parent)
	}
	// Verify the parent's identity: the delta recorded the content-derived
	// ID of the image it was written against. A parent name later rebound
	// to different content (overwritten, replaced by a new chain's base)
	// must fail the restore instead of silently mixing states.
	if d.parentID != 0 {
		if parent.Delta == nil || parent.Delta.id != d.parentID {
			return nil, fmt.Errorf("%w: image %q is not the parent this delta was written against", ErrDeltaChain, d.Parent)
		}
	}
	out := &Image{Version: 3, Gzip: delta.Gzip, Sections: NewSectionMap()}
	out.Delta = &DeltaInfo{
		Parent: d.Parent, Depth: d.Depth,
		ShardsTotal: d.ShardsTotal, ShardsEmitted: d.ShardsEmitted,
		RawTotal: d.RawTotal, RawEmitted: d.RawEmitted,
		Materialized: true,
		id:           d.id, parentID: d.parentID,
		shardSize: d.shardSize, secs: d.secs,
	}

	// Regions: allocate at the delta's layout, inherit parent bytes by
	// absolute address overlap. Every byte the parent cannot supply is
	// covered by a delta shard: pages of mappings created after the
	// parent checkpoint are stamped dirty from birth.
	out.Regions = make([]RegionData, len(delta.Regions))
	for i, rd := range delta.Regions {
		nr := rd
		nr.Data = make([]byte, rd.Len)
		for _, pr := range parent.Regions {
			lo, hi := rd.Start, rd.Start+rd.Len
			if pr.Start > lo {
				lo = pr.Start
			}
			if pe := pr.Start + uint64(len(pr.Data)); pe < hi {
				hi = pe
			}
			if lo < hi {
				copy(nr.Data[lo-rd.Start:hi-rd.Start], pr.Data[lo-pr.Start:hi-pr.Start])
			}
		}
		out.Regions[i] = nr
	}
	// Sections: inherit by name (resized to the delta's length); opaque
	// sections start empty and are resolved below.
	secData := make([][]byte, len(d.secs))
	for i, sec := range d.secs {
		secData[i] = make([]byte, sec.size)
		if !sec.opaque {
			if pb, ok := parent.Sections.Get(sec.name); ok {
				copy(secData[i], pb)
			}
		}
	}
	// Overlay the dirty shards.
	nReg := len(delta.Regions)
	for _, sh := range d.shards {
		if sh.span < nReg {
			copy(out.Regions[sh.span].Data[sh.off:], sh.data)
		} else {
			copy(secData[sh.span-nReg][sh.off:], sh.data)
		}
	}
	for i, sec := range d.secs {
		if sec.opaque {
			if merger := mergers[sec.name]; merger != nil {
				pb, _ := parent.Sections.Get(sec.name)
				nb, err := merger(pb, secData[i])
				if err != nil {
					return nil, fmt.Errorf("dmtcp: merging section %s: %w", sec.name, err)
				}
				secData[i] = nb
			}
			out.Sections.MarkOpaque(sec.name)
		}
		out.Sections.Add(sec.name, secData[i])
	}
	return out, nil
}

// ResolveChain materializes img if it is an unresolved delta, following
// parent names through open (typically a Store lookup) back to the
// chain's base and folding the deltas forward. Already-complete images
// (v1, v2, v3 bases, materialized deltas) pass through unchanged.
func ResolveChain(img *Image, open func(name string) (io.ReadCloser, error), mergers map[string]SectionMerger) (*Image, error) {
	if img == nil || img.Complete() {
		return img, nil
	}
	if open == nil {
		return nil, fmt.Errorf("%w: no way to open parent %q", ErrDeltaChain, img.Delta.Parent)
	}
	chain := []*Image{img}
	walk := ChainWalk{"": true} // the tip has no name here
	cur := img
	for !cur.Complete() {
		pname := cur.Delta.Parent
		if err := walk.Step(pname); err != nil {
			return nil, err
		}
		rc, err := open(pname)
		if err != nil {
			return nil, fmt.Errorf("%w: opening parent %q: %w", ErrDeltaChain, pname, err)
		}
		pimg, err := ReadImage(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("parent %q: %w", pname, err)
		}
		chain = append(chain, pimg)
		cur = pimg
	}
	out := chain[len(chain)-1]
	for i := len(chain) - 2; i >= 0; i-- {
		var err error
		out, err = ApplyDelta(out, chain[i], mergers)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ImageMeta is the cheap header-only view of a checkpoint image: enough
// to classify the format and follow lineage without parsing tables or
// payload. The store's lineage graph is built from it.
type ImageMeta struct {
	Version int
	Gzip    bool
	Delta   bool
	Parent  string
	Depth   int
	// ID and ParentID: see DeltaInfo (0 for v1/v2).
	ID       uint64
	ParentID uint64
}

// ReadImageMeta parses just the image prologue (magic, flags and — for
// v3 — the lineage fields), reading no byte past it.
func ReadImageMeta(r io.Reader) (ImageMeta, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return ImageMeta{}, fmt.Errorf("%w: magic: %v", ErrBadImage, err)
	}
	switch magic {
	case imageMagicV1, imageMagicV2:
		flags, err := readFlags(r, 1)
		if err != nil {
			return ImageMeta{}, err
		}
		return ImageMeta{Version: int(magic[7] - '0'), Gzip: flags[0]&1 != 0}, nil
	case imageMagicV3:
		return readLineageV3(r)
	default:
		if bytes.Equal(magic[:7], imageMagicV1[:7]) {
			return ImageMeta{}, fmt.Errorf("%w: %q", ErrUnsupportedVersion, magic[:])
		}
		return ImageMeta{}, fmt.Errorf("%w: bad magic %q", ErrBadImage, magic[:])
	}
}

// readLineageV3 parses what follows a v3 image's magic up to its region
// table: flags, parent name, depth, and the image and parent identities.
func readLineageV3(r io.Reader) (ImageMeta, error) {
	flags, err := readFlags(r, 3)
	if err != nil {
		return ImageMeta{}, err
	}
	m := ImageMeta{Version: 3, Gzip: flags[0]&1 != 0, Delta: flags[0]&2 != 0}
	if m.Parent, err = readString(r); err != nil {
		return ImageMeta{}, fmt.Errorf("%w: parent: %v", ErrBadImage, err)
	}
	var ids [20]byte // depth u32, image id u64, parent id u64
	if _, err := io.ReadFull(r, ids[:]); err != nil {
		return ImageMeta{}, fmt.Errorf("%w: depth and ids: %v", ErrBadImage, err)
	}
	m.Depth, m.ID, m.ParentID = int(le32(ids[:])), le64(ids[4:]), le64(ids[12:])
	if m.Depth > MaxChainDepth {
		return ImageMeta{}, fmt.Errorf("%w: delta depth %d", ErrBadImage, m.Depth)
	}
	if m.Delta && m.Parent == "" {
		return ImageMeta{}, fmt.Errorf("%w: delta image names no parent", ErrBadImage)
	}
	return m, nil
}
