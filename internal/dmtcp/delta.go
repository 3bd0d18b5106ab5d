// The image format ("CRACIMG3") and incremental checkpointing.
//
// Every image carries the complete region and section header tables of
// the checkpointed state, followed by a set of payload shards, each
// addressed by (span, offset) — spans are the regions in address order,
// then the sections in insertion order — and the CRACSUM1 trailer
// (trailer.go). An image is one of three kinds:
//
//   - standalone (flagUnhashed): belongs to no chain, carries every
//     shard and no shard hashes or identity — the trailer alone covers
//     its bytes, so writing it hashes nothing but the trailer's CRC;
//   - a chain *base*: carries every shard, each stamped with an FNV-1a
//     content hash, and a content-derived identity;
//   - a *delta* (flagDelta) against a named parent: carries only the
//     dirty shards, hashed like a base.
//
// A delta's shards are chosen as follows:
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
// Shards flow through one worker pipeline — they compress and write in
// parallel, in deterministic order, so an image is byte-identical for
// any worker count. Reading a delta back yields an unmaterialized
// Image; ApplyDelta / ResolveChain fold a base plus its deltas into the
// same complete Image a base reads back as.
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

// shardHdrV3 is the fixed size of a shard header:
// u32 span, u64 offset, u32 rawLen, u32 encLen, u64 hash.
const shardHdrV3 = 28

// Image flag bits: the first of the four flag bytes (the other three
// are zero). Any other bit is ErrBadImage.
const (
	flagGzip     = 1 << 0 // every shard is one gzip member
	flagDelta    = 1 << 1 // only dirty shards, against a named parent
	flagUnhashed = 1 << 2 // standalone: no shard hashes, no identity
	knownFlags   = flagGzip | flagDelta | flagUnhashed
)

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

// deltaShard is one decoded, not-yet-applied shard of a delta.
type deltaShard struct {
	span int
	off  uint64
	hash uint64
	data []byte
}

// DeltaInfo describes the lineage and shard accounting of an Image.
type DeltaInfo struct {
	// Parent names the image this delta applies on top of ("" for a
	// base or a standalone image).
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

	id        uint64 // content-derived image identity (0: none)
	parentID  uint64 // recorded identity of the parent (0: none)
	shardSize int
	secs      []SectionHdr
	shards    []deltaShard // nil once materialized
}

// ID returns the image's content-derived identity (0 for a standalone
// image, which has none).
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

// SectionHdr is one entry of an image's section table.
type SectionHdr struct {
	Name   string
	Size   uint64
	Opaque bool
}

// SectionLayout returns the image's section table — available even for
// an unmaterialized delta, whose Sections map is still empty.
func (d *DeltaInfo) SectionLayout() []SectionHdr {
	return append([]SectionHdr(nil), d.secs...)
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

// imageID derives a deterministic identity for a chain image from its
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

// header is everything an image carries before its first shard record:
// the prologue (flags and lineage), the region and section tables, and
// the shard grid and count.
type header struct {
	ImageMeta
	regions   []RegionData // headers only: Data is nil
	secs      []SectionHdr
	shardSize int
	shards    int    // shard records that follow
	total     uint64 // payload bytes the tables lay out
}

// writeHeader emits h in one write.
func writeHeader(w io.Writer, h *header) error {
	le := binary.LittleEndian
	b := append(make([]byte, 0, 512), imageMagic[:]...)
	b = append(b, h.flags(), 0, 0, 0)
	var err error
	if b, err = appendString(b, h.Parent); err != nil {
		return err
	}
	b = le.AppendUint32(b, uint32(h.Depth))
	b = le.AppendUint64(b, h.ID)
	b = le.AppendUint64(b, h.ParentID)
	b = le.AppendUint32(b, uint32(len(h.regions)))
	for _, rd := range h.regions {
		b = le.AppendUint64(b, rd.Start)
		b = le.AppendUint64(b, rd.Len)
		b = append(b, byte(rd.Prot))
		if b, err = appendString(b, rd.Label); err != nil {
			return err
		}
	}
	b = le.AppendUint32(b, uint32(len(h.secs)))
	for _, sec := range h.secs {
		if b, err = appendString(b, sec.Name); err != nil {
			return err
		}
		b = le.AppendUint64(b, sec.Size)
		var sf byte
		if sec.Opaque {
			sf = 1
		}
		b = append(b, sf)
	}
	b = le.AppendUint32(b, uint32(h.shardSize))
	b = le.AppendUint32(b, uint32(h.shards))
	_, err = w.Write(b)
	return err
}

// writeImage emits the image a frozen checkpoint describes through the
// shared worker pipeline: a standalone image, or a chain base or delta
// whose DeltaState it returns (nil for a standalone image).
func (e *Engine) writeImage(ctx context.Context, w io.Writer, view addrspace.View, regions []addrspace.RegionInfo, sections *SectionMap, fz *Frozen, st *Stats) (*DeltaState, error) {
	prev := fz.prev
	delta := prev != nil
	shard := e.shardSize()
	names := sections.Names()
	h := &header{ImageMeta: ImageMeta{Gzip: e.Gzip, Unhashed: !fz.chain, Delta: delta}, shardSize: shard}
	var secHashes map[string][]uint64
	if fz.chain {
		if delta {
			h.Parent, h.Depth, h.ParentID = prev.Name, prev.Depth+1, prev.ID
		}
		// Hash every section shard (in parallel) before the header goes
		// out: the hashes decide which section shards a delta emits, stamp
		// the emitted frames, feed the image's identity, and become the
		// table the next delta compares against. A standalone image has no
		// next delta and no reader of its identity, so it skips all of it.
		secHashes = hashSections(sections, names, shard, e.Workers)
		// The image identity is derived from lineage and content, not
		// randomness, so images stay byte-deterministic: two images collide
		// only when their lineage and section state (including the
		// ever-growing call log) are identical — in which case confusing
		// them is harmless. ApplyDelta verifies a delta's recorded parent
		// identity against the image it is applied to, so a parent name
		// overwritten with different content fails the restore instead of
		// silently mixing states.
		h.ID = imageID(h.ParentID, h.Depth, fz.cut, names, secHashes)
	}
	for _, ri := range regions {
		h.regions = append(h.regions, RegionData{Start: ri.Start, Len: ri.Len, Prot: ri.Prot, Label: ri.Label})
		st.RegionBytes += ri.Len
	}
	for _, name := range names {
		data, _ := sections.Get(name)
		h.secs = append(h.secs, SectionHdr{Name: name, Size: uint64(len(data)), Opaque: sections.Opaque(name)})
		st.SectionBytes += uint64(len(data))
	}

	// Region dirty spans since the parent's cut (page-granular, merged).
	var dirtyByStart map[uint64][]addrspace.Span
	if delta {
		dirtyByStart = make(map[uint64][]addrspace.Span)
		for _, rd := range view.DirtySince(addrspace.HalfUpper, fz.since) {
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
	// dirty subset (the whole grid for a base or a standalone image).
	var jobs []shardJob
	spanIdx := uint32(0)
	for _, ri := range regions {
		spans := dirtyByStart[ri.Start] // nil for a base: emit all
		for off := uint64(0); off < ri.Len; off += uint64(shard) {
			n := min(ri.Len-off, uint64(shard))
			st.ShardsTotal++
			st.PayloadTotal += n
			if delta && !overlaps(spans, off, n) {
				continue
			}
			jobs = append(jobs, shardJob{addr: ri.Start + off, rawLen: int(n),
				spanIdx: spanIdx, spanOff: off, needHash: fz.chain, done: make(chan struct{})})
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
			n := min(len(data)-off, shard)
			st.ShardsTotal++
			st.PayloadTotal += uint64(n)
			if delta && !opaque && si < len(prevHs) && prevHs[si] == hs[si] {
				continue
			}
			j := shardJob{src: data[off : off+n], rawLen: n,
				spanIdx: spanIdx, spanOff: uint64(off), done: make(chan struct{})}
			if hs != nil {
				j.hash = hs[si]
			}
			jobs = append(jobs, j)
			st.PayloadWritten += uint64(n)
		}
		spanIdx++
	}
	st.ShardsWritten = len(jobs)
	h.shards = len(jobs)
	if err := writeHeader(w, h); err != nil {
		return nil, err
	}
	if err := e.runWritePipeline(ctx, w, view, jobs); err != nil {
		return nil, err
	}
	if !fz.chain {
		return nil, nil
	}
	ancestry := []string{fz.selfName}
	if prev != nil {
		ancestry = append(append([]string(nil), prev.Ancestry...), fz.selfName)
	}
	return &DeltaState{
		Name:      fz.selfName,
		ID:        h.ID,
		Depth:     h.Depth,
		Cut:       fz.cut,
		ShardSize: shard,
		Hashes:    secHashes,
		Ancestry:  ancestry,
	}, nil
}

// Minimum encoded sizes of one table entry (an empty label or name):
// what expect may count on before the strings have been read.
const (
	regionHdrMin  = 8 + 8 + 1 + 2 // start, len, prot, label length
	sectionHdrMin = 2 + 8 + 1     // name length, size, flags
)

// readHeader parses an image's header from r. expect, when set, learns
// how many more header bytes each count just parsed guarantees — the
// index scan's read-ahead hint. Every table grows with the entries that
// actually arrive, so a hostile count costs nothing until its entries
// do.
func readHeader(r io.Reader, expect func(int64)) (*header, error) {
	if expect == nil {
		expect = func(int64) {}
	}
	meta, err := readPrologue(r)
	if err != nil {
		return nil, err
	}
	h := &header{ImageMeta: meta}
	var u [8]byte
	u32 := func() (uint32, error) {
		_, err := io.ReadFull(r, u[:4])
		return le32(u[:]), err
	}
	u64 := func() (uint64, error) {
		_, err := io.ReadFull(r, u[:])
		return le64(u[:]), err
	}
	n, err := u32()
	if err != nil {
		return nil, fmt.Errorf("%w: region count: %v", ErrBadImage, err)
	}
	if n > maxItemCount {
		return nil, fmt.Errorf("%w: region count %d", ErrBadImage, n)
	}
	for i := uint32(0); i < n; i++ {
		// The rest of the table, labels aside, then the section count.
		expect(int64(n-i)*regionHdrMin + 4)
		var rd RegionData
		if rd.Start, err = u64(); err == nil {
			rd.Len, err = u64()
		}
		if err == nil {
			_, err = io.ReadFull(r, u[:1])
			rd.Prot = addrspace.Prot(u[0])
		}
		if err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		if rd.Len > maxItemBytes {
			return nil, fmt.Errorf("%w: region %d len %d", ErrBadImage, i, rd.Len)
		}
		if rd.Label, err = readString(r); err != nil {
			return nil, fmt.Errorf("%w: region %d label: %v", ErrBadImage, i, err)
		}
		h.total += rd.Len
		h.regions = append(h.regions, rd)
	}
	if n, err = u32(); err != nil {
		return nil, fmt.Errorf("%w: section count: %v", ErrBadImage, err)
	}
	if n > maxItemCount {
		return nil, fmt.Errorf("%w: section count %d", ErrBadImage, n)
	}
	for i := uint32(0); i < n; i++ {
		expect(int64(n-i)*sectionHdrMin + 8) // then shard size and count
		name, err := readString(r)
		if err != nil {
			return nil, fmt.Errorf("%w: section %d name: %v", ErrBadImage, i, err)
		}
		size, err := u64()
		if err != nil {
			return nil, fmt.Errorf("%w: section %d size: %v", ErrBadImage, i, err)
		}
		if size > maxItemBytes {
			return nil, fmt.Errorf("%w: section %d len %d", ErrBadImage, i, size)
		}
		if _, err := io.ReadFull(r, u[:1]); err != nil {
			return nil, fmt.Errorf("%w: section %d flags: %v", ErrBadImage, i, err)
		}
		h.secs = append(h.secs, SectionHdr{Name: name, Size: size, Opaque: u[0]&1 != 0})
		h.total += size
	}
	if h.total > maxTotalBytes {
		return nil, fmt.Errorf("%w: payload too large (%d bytes)", ErrBadImage, h.total)
	}
	shard, err := u32()
	if err != nil {
		return nil, fmt.Errorf("%w: shard size: %v", ErrBadImage, err)
	}
	if shard == 0 || shard > maxFrameBytes {
		return nil, fmt.Errorf("%w: shard size %d", ErrBadImage, shard)
	}
	count, err := u32()
	if err != nil {
		return nil, fmt.Errorf("%w: shard count: %v", ErrBadImage, err)
	}
	if count > maxItemCount {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadImage, count)
	}
	h.shardSize, h.shards = int(shard), int(count)
	return h, nil
}

// spanSizes returns the header's span layout: region lengths, then
// section sizes.
func (h *header) spanSizes() []uint64 {
	sizes := make([]uint64, 0, len(h.regions)+len(h.secs))
	for _, rd := range h.regions {
		sizes = append(sizes, rd.Len)
	}
	for _, sec := range h.secs {
		sizes = append(sizes, sec.Size)
	}
	return sizes
}

// shardsTotal counts the shards the full layout tiles into.
func (h *header) shardsTotal() int {
	n := 0
	for _, size := range h.spanSizes() {
		n += int((size + uint64(h.shardSize) - 1) / uint64(h.shardSize))
	}
	return n
}

// shardRec is one admitted shard header.
type shardRec struct {
	span           int
	off            uint64
	rawLen, encLen uint32
	hash           uint64
}

// tiling admits an image's shard records in stream order: each must lie
// inside its span and match the image's encoding; a base or standalone
// image must tile the whole layout exactly (the writer emits every
// shard, in span order), a delta's shards must be strictly ascending and
// non-overlapping.
type tiling struct {
	h     *header
	sizes []uint64
	bases []uint64 // global raw offset of each span
	next  uint64   // base: next global offset; delta: end of the last shard
}

func newTiling(h *header) *tiling {
	t := &tiling{h: h, sizes: h.spanSizes()}
	var off uint64
	for _, size := range t.sizes {
		t.bases = append(t.bases, off)
		off += size
	}
	return t
}

func (t *tiling) admit(i int, hdr []byte) (shardRec, error) {
	rec := shardRec{span: int(le32(hdr[0:])), off: le64(hdr[4:]),
		rawLen: le32(hdr[12:]), encLen: le32(hdr[16:]), hash: le64(hdr[20:])}
	sp, so, rawLen, encLen := rec.span, rec.off, uint64(rec.rawLen), rec.encLen
	if uint(sp) >= uint(len(t.sizes)) || rawLen == 0 || rawLen > uint64(t.h.shardSize) ||
		encLen == 0 || encLen > maxFrameBytes ||
		so+rawLen < so || so+rawLen > t.sizes[sp] {
		return rec, fmt.Errorf("%w: shard %d (span %d, off %d, %d/%d bytes)", ErrBadImage, i, sp, so, rawLen, encLen)
	}
	if !t.h.Gzip && uint64(encLen) != rawLen {
		return rec, fmt.Errorf("%w: stored shard %d != %d", ErrBadImage, encLen, rawLen)
	}
	if t.h.Unhashed && rec.hash != 0 {
		return rec, fmt.Errorf("%w: shard %d of a standalone image carries a hash", ErrBadImage, i)
	}
	global := t.bases[sp] + so
	switch {
	case !t.h.Delta && global != t.next:
		return rec, fmt.Errorf("%w: shard %d at raw offset %d, want %d", ErrBadImage, i, global, t.next)
	case t.h.Delta && i > 0 && global < t.next:
		return rec, fmt.Errorf("%w: shard %d overlaps or regresses at raw offset %d", ErrBadImage, i, global)
	}
	t.next = global + rawLen
	return rec, nil
}

// finish checks that a full image covered its whole layout.
func (t *tiling) finish() error {
	if !t.h.Delta && t.next != t.h.total {
		return fmt.Errorf("%w: image covers %d of %d payload bytes", ErrBadImage, t.next, t.h.total)
	}
	return nil
}

// readImage parses one image body. A base or standalone image
// materializes immediately; a delta parses its shards and waits for
// ApplyDelta/ResolveChain.
func readImage(r io.Reader) (*Image, error) {
	h, err := readHeader(r, nil)
	if err != nil {
		return nil, err
	}
	img := &Image{Version: 3, Gzip: h.Gzip, Regions: h.regions, Sections: NewSectionMap()}
	secData := make([][]byte, len(h.secs))
	dsts := make([]*[]byte, 0, len(h.regions)+len(h.secs))
	for i := range img.Regions {
		dsts = append(dsts, &img.Regions[i].Data)
	}
	for i := range secData {
		dsts = append(dsts, &secData[i])
	}
	di := &DeltaInfo{
		Parent: h.Parent, Depth: h.Depth,
		ShardsTotal: h.shardsTotal(), ShardsEmitted: h.shards,
		RawTotal: h.total,
		id:       h.ID, parentID: h.ParentID,
		shardSize: h.shardSize, secs: h.secs,
	}
	img.Delta = di

	type pending struct {
		shardRec
		enc []byte // compressed payload, or nil when already in dst
		dst []byte // destination slice (full image: span memory; delta: own buffer)
	}
	// Grown as shard records arrive, not sized by the claimed count.
	var frames []pending
	tl := newTiling(h)
	var hdr [shardHdrV3]byte
	for i := 0; i < h.shards; i++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: shard %d header: %v", ErrBadImage, i, err)
		}
		rec, err := tl.admit(i, hdr[:])
		if err != nil {
			return nil, err
		}
		f := pending{shardRec: rec}
		if !h.Delta {
			dst := dsts[rec.span]
			if *dst == nil {
				*dst = make([]byte, tl.sizes[rec.span])
			}
			f.dst = (*dst)[rec.off : rec.off+uint64(rec.rawLen)]
		} else {
			f.dst = make([]byte, rec.rawLen)
		}
		if !h.Gzip {
			if _, err := io.ReadFull(r, f.dst); err != nil {
				return nil, fmt.Errorf("%w: shard %d data: %v", ErrBadImage, i, err)
			}
		} else {
			enc, err := readExact(r, uint64(rec.encLen))
			if err != nil {
				return nil, fmt.Errorf("%w: shard %d data: %v", ErrBadImage, i, err)
			}
			f.enc = enc
		}
		di.RawEmitted += uint64(rec.rawLen)
		frames = append(frames, f)
	}
	if err := tl.finish(); err != nil {
		return nil, err
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
		if !h.Unhashed && fnvSum64(f.dst) != f.hash {
			return fmt.Errorf("%w: shard %d content hash mismatch", ErrCorruptImage, i)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if !h.Delta {
		// A full image is complete: publish the sections (zero-size ones
		// too) and drop the shard bookkeeping.
		for i, sec := range h.secs {
			if secData[i] == nil {
				secData[i] = make([]byte, sec.Size)
			}
			img.Sections.Add(sec.Name, secData[i])
			if sec.Opaque {
				img.Sections.MarkOpaque(sec.Name)
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
		secData[i] = make([]byte, sec.Size)
		if !sec.Opaque {
			if pb, ok := parent.Sections.Get(sec.Name); ok {
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
		if sec.Opaque {
			if merger := mergers[sec.Name]; merger != nil {
				pb, _ := parent.Sections.Get(sec.Name)
				nb, err := merger(pb, secData[i])
				if err != nil {
					return nil, fmt.Errorf("dmtcp: merging section %s: %w", sec.Name, err)
				}
				secData[i] = nb
			}
			out.Sections.MarkOpaque(sec.Name)
		}
		out.Sections.Add(sec.Name, secData[i])
	}
	return out, nil
}

// ResolveChain materializes img if it is an unresolved delta, following
// parent names through open (typically a Store lookup) back to the
// chain's base and folding the deltas forward. Already-complete images
// (standalone images, bases, materialized deltas) pass through
// unchanged.
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
// to classify it and follow lineage without parsing tables or payload.
// The store's lineage graph is built from it.
type ImageMeta struct {
	Gzip  bool
	Delta bool
	// Unhashed marks a standalone image: it belongs to no chain and its
	// shards carry no content hashes, so only its trailer covers its
	// payload.
	Unhashed bool
	Parent   string
	Depth    int
	// ID and ParentID: see DeltaInfo (0 for a standalone image).
	ID       uint64
	ParentID uint64
}

func (m *ImageMeta) flags() byte {
	var f byte
	if m.Gzip {
		f |= flagGzip
	}
	if m.Delta {
		f |= flagDelta
	}
	if m.Unhashed {
		f |= flagUnhashed
	}
	return f
}

// ReadImageMeta parses just the image prologue (magic, flags and the
// lineage fields), reading no byte past it.
func ReadImageMeta(r io.Reader) (ImageMeta, error) { return readPrologue(r) }

// prologueSize is the length of a prologue whose parent name is empty,
// plus the region count that always follows it.
const prologueSize = 8 + 4 + 2 + 4 + 8 + 8 + 4

// readPrologue parses an image's magic, flags, parent name, depth, and
// the image and parent identities.
func readPrologue(r io.Reader) (ImageMeta, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return ImageMeta{}, fmt.Errorf("%w: magic: %v", ErrBadImage, err)
	}
	if magic != imageMagic {
		// A CRACIMG prefix with another version digit is an image from a
		// build this one does not speak, not garbage.
		if bytes.Equal(magic[:7], imageMagic[:7]) {
			return ImageMeta{}, fmt.Errorf("%w: %q", ErrUnsupportedVersion, magic[:])
		}
		return ImageMeta{}, fmt.Errorf("%w: bad magic %q", ErrBadImage, magic[:])
	}
	flags, err := readFlags(r, knownFlags)
	if err != nil {
		return ImageMeta{}, err
	}
	m := ImageMeta{Gzip: flags&flagGzip != 0, Delta: flags&flagDelta != 0, Unhashed: flags&flagUnhashed != 0}
	if m.Parent, err = readString(r); err != nil {
		return ImageMeta{}, fmt.Errorf("%w: parent: %v", ErrBadImage, err)
	}
	var ids [20]byte // depth u32, image id u64, parent id u64
	if _, err := io.ReadFull(r, ids[:]); err != nil {
		return ImageMeta{}, fmt.Errorf("%w: depth and ids: %v", ErrBadImage, err)
	}
	m.Depth, m.ID, m.ParentID = int(le32(ids[:])), le64(ids[4:]), le64(ids[12:])
	switch {
	case m.Depth > MaxChainDepth:
		return ImageMeta{}, fmt.Errorf("%w: delta depth %d", ErrBadImage, m.Depth)
	case m.Delta && m.Parent == "":
		return ImageMeta{}, fmt.Errorf("%w: delta image names no parent", ErrBadImage)
	case m.Unhashed && (m.Delta || m.Parent != "" || m.Depth != 0 || m.ID != 0 || m.ParentID != 0):
		return ImageMeta{}, fmt.Errorf("%w: standalone image carries lineage", ErrBadImage)
	}
	return m, nil
}
