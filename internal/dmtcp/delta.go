// The image format ("CRACIMG3") and incremental checkpointing.
//
// Every image carries the complete span and section header tables of
// the checkpointed state, followed by a set of payload shards, each
// addressed by (span, offset) — spans are the span table's entries in
// address order, then the sections in insertion order — and the
// CRACSUM1 trailer (trailer.go). The span table holds the upper-half
// regions, which a restart maps, and the fill-only spans (FillSpan),
// which it only fills; each entry records its class. An image is one
// of three kinds:
//
//   - standalone (flagUnhashed): belongs to no chain, carries every
//     shard and no shard hashes or identity — the trailer alone covers
//     its bytes, so writing it hashes nothing but the trailer's CRC;
//   - a chain *base* (flagShardCRC): carries every shard, each stamped
//     with its shardSum, and a content-derived identity;
//   - a *delta* (flagDelta) against a named parent: carries only the
//     dirty shards, hashed like a base.
//
// A delta's shards are chosen as follows:
//
//   - region shards are dirty when the address space's page-granular
//     write-generation tracking (addrspace.Space.DirtySince) reports a
//     write after the previous checkpoint's epoch cut — clean shards
//     are never even read out of memory;
//   - fill-only shards are dirty on the same write stamps, when the
//     parent's span table does not cover them (memory carved after the
//     parent's cut, which the parent does not hold), or when the
//     emitting plugin reports them touched (FillSpan.Touched);
//   - section shards are dirty when their content hash differs from
//     the same shard of the previous checkpoint (the writer threads the
//     per-shard hash table forward through DeltaState), so append-only
//     sections like the replay log re-emit only their tail.
//
// Shards flow through one worker pipeline — they are read, hashed and
// written in parallel, in deterministic order, so an image is
// byte-identical for any worker count. Every image is read back
// through one parser, the shard index (lazy.go): a delta's index,
// linked to its parent's with SetParent, resolves each range to the
// nearest chain image that owns it.
package dmtcp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/addrspace"
	"repro/internal/par"
)

// shardHdrV3 is the fixed size of a shard header:
// u32 span, u64 offset, u32 rawLen, u32 encLen, u64 hash.
const shardHdrV3 = 28

// Image flag bits: the first of the four flag bytes (the other three
// are zero). Any other bit is ErrBadImage. Bit 0 marked gzip-encoded
// shards, a retired encoding: an image that sets it is
// ErrUnsupportedVersion. Every chain image sets flagShardCRC; a chain
// image without it was hashed with the retired FNV-1a shard hash and is
// ErrUnsupportedVersion too. A standalone image never sets it. Every
// image sets flagSpanClass: its span table entries carry a class byte.
// An image without it kept active-malloc memory in a retired section
// of its own (crac.devmem2) and is ErrUnsupportedVersion.
const (
	flagGzipRetired = 1 << 0
	flagDelta       = 1 << 1 // only dirty shards, against a named parent
	flagUnhashed    = 1 << 2 // standalone: no shard hashes, no identity
	flagShardCRC    = 1 << 3 // chain image: shards carry shardSum
	flagSpanClass   = 1 << 4 // span table entries carry a class
	knownFlags      = flagGzipRetired | flagDelta | flagUnhashed | flagShardCRC | flagSpanClass
)

// MaxChainDepth bounds every parent walk over stored images: the writer
// rotates to a fresh base before a chain gets this deep, so a longer
// lineage can only be corrupt or hostile.
const MaxChainDepth = 512

// ErrDeltaChain reports an operation that needs a delta image's parent
// chain: reading a delta whose parent is not linked, or resolving a
// chain whose parent is missing, cyclic, deeper than MaxChainDepth, or
// not the image the delta was written against.
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
	// next delta records it so chain resolution can detect a parent
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
	// Hashes holds the per-shard shardSum table of every section at
	// this checkpoint, keyed by section name.
	Hashes map[string][]uint64
	// Fills lists the image's fill-only spans ([Off, Off+Len) address
	// ranges, ascending): the next delta emits fill-only shards these do
	// not cover.
	Fills []addrspace.Span
	// PluginCuts holds the cut each plugin's Freeze returned for this
	// image, in registration order; the next delta hands them back.
	PluginCuts []uint64
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

// SectionHdr is one entry of an image's section table.
type SectionHdr struct {
	Name string
	Size uint64
}

// shardSum is the content hash of a chain image's shard: CRC-32C in the
// high word, CRC-32 (IEEE) in the low. The two generator polynomials
// are coprime, so the pair is one CRC with a degree-64 generator: it
// detects every burst of up to 64 bits and every odd-weight error, and
// an unstructured change escapes it with probability 2^-64. Both halves
// are hardware-accelerated on amd64 and arm64; the sum is a stored
// format, so every other architecture computes the same value in
// software (TestShardSumVectors).
func shardSum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(b))
}

// hashSections computes the per-shard shardSum table of every section.
func hashSections(sections *SectionMap, names []string, shard int) map[string][]uint64 {
	out := make(map[string][]uint64, len(names))
	for _, name := range names {
		data := sections.m[name]
		hs := make([]uint64, 0, (len(data)+shard-1)/shard)
		for off := 0; off < len(data); off += shard {
			hs = append(hs, shardSum(data[off:min(off+shard, len(data))]))
		}
		out[name] = hs
	}
	return out
}

// imageID derives a deterministic identity for a chain image from its
// lineage, its section content hashes, its fill-only span table and the
// fill-only shards it carries. With the CRAC plugin registered the
// replay log section grows on every checkpoint, so two distinct
// checkpoints of one session never share an ID; equal IDs imply equal
// lineage, section state and active-malloc memory, where confusion is
// harmless.
func imageID(parentID uint64, depth int, cut uint64, names []string, secHashes map[string][]uint64, fills []addrspace.Span, fillJobs []*shardJob) uint64 {
	le := binary.LittleEndian
	b := le.AppendUint64(le.AppendUint64(le.AppendUint64(nil, parentID), uint64(depth)), cut)
	for _, name := range names {
		b = append(b, name...)
		for _, sh := range secHashes[name] {
			b = le.AppendUint64(b, sh)
		}
	}
	for _, f := range fills {
		b = le.AppendUint64(le.AppendUint64(b, f.Off), f.Len)
	}
	for _, j := range fillJobs {
		b = le.AppendUint64(le.AppendUint64(b, j.addr), j.hash)
	}
	return shardSum(b)
}

// header is everything an image carries before its first shard record:
// the prologue (flags and lineage), the region and section tables, and
// the shard grid and count.
type header struct {
	ImageMeta
	regions   []RegionData
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
		b = append(b, byte(rd.Prot), byte(rd.Class))
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
		b = append(b, 0) // section flags: none defined
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
	h := &header{ImageMeta: ImageMeta{Unhashed: !fz.chain, Delta: delta}, shardSize: shard}
	var secHashes map[string][]uint64
	if fz.chain {
		if delta {
			h.Parent, h.Depth, h.ParentID = prev.Name, prev.Depth+1, prev.ID
		}
		// The section hashes decide which section shards a delta emits,
		// stamp the emitted frames, feed the image's identity, and become
		// the table the next delta compares against. A standalone image
		// has no next delta and no reader of its identity, so it skips
		// all of it.
		secHashes = hashSections(sections, names, shard)
	}

	// The span table: upper-half regions and fill-only spans in address
	// order, each fill-only span with its extra dirt verdict.
	type span struct {
		rd      RegionData
		touched func(addr, n uint64) bool
	}
	spans := make([]span, 0, len(regions)+len(sections.fills))
	for _, ri := range regions {
		spans = append(spans, span{rd: RegionData{Start: ri.Start, Len: ri.Len, Prot: ri.Prot, Label: ri.Label}})
		st.RegionBytes += ri.Len
	}
	var fillSpans []addrspace.Span
	for _, f := range sections.fills {
		if f.Class == ClassRegion || f.Class > ClassManaged {
			return nil, fmt.Errorf("dmtcp: fill-only span %#x+%d has class %d", f.Addr, f.Len, f.Class)
		}
		spans = append(spans, span{RegionData{Start: f.Addr, Len: f.Len, Class: f.Class}, f.Touched})
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].rd.Start < spans[j].rd.Start })
	for i, sp := range spans {
		if i > 0 && sp.rd.Start < h.regions[i-1].Start+h.regions[i-1].Len {
			return nil, fmt.Errorf("dmtcp: span %#x+%d overlaps the span before it", sp.rd.Start, sp.rd.Len)
		}
		h.regions = append(h.regions, sp.rd)
		if sp.rd.FillOnly() {
			fillSpans = append(fillSpans, addrspace.Span{Off: sp.rd.Start, Len: sp.rd.Len})
		}
	}
	for _, name := range names {
		size := uint64(len(sections.m[name]))
		h.secs = append(h.secs, SectionHdr{Name: name, Size: size})
		st.SectionBytes += size
	}

	// Region dirty spans since the parent's cut (page-granular, merged).
	var dirtyByStart map[uint64][]addrspace.Span
	if delta {
		dirtyByStart = make(map[uint64][]addrspace.Span)
		for _, rd := range view.DirtySince(addrspace.HalfUpper, fz.since) {
			dirtyByStart[rd.Start] = rd.Spans
		}
	}
	dirty := func(i int, off, n uint64) bool {
		rd := &h.regions[i]
		if !rd.FillOnly() {
			return overlapsAny(dirtyByStart[rd.Start], off, n)
		}
		addr := rd.Start + off
		return view.RangeDirtySince(addr, n, fz.since) || !covers(prev.Fills, addr, n) ||
			(spans[i].touched != nil && spans[i].touched(addr, n))
	}

	// Shard plan: all spans in layout order, emitting a deterministic
	// dirty subset (the whole grid for a base or a standalone image).
	var jobs []shardJob
	for i, rd := range h.regions {
		for off := uint64(0); off < rd.Len; off += uint64(shard) {
			n := min(rd.Len-off, uint64(shard))
			st.ShardsTotal++
			st.PayloadTotal += n
			if delta && !dirty(i, off, n) {
				continue
			}
			jobs = append(jobs, shardJob{addr: rd.Start + off, rawLen: int(n),
				spanIdx: uint32(i), spanOff: off, needHash: fz.chain, done: make(chan struct{})})
			st.PayloadWritten += n
		}
	}
	for i, name := range names {
		data, hs := sections.m[name], secHashes[name]
		var prevHs []uint64
		if delta {
			prevHs = prev.Hashes[name]
		}
		for si, off := 0, 0; off < len(data); si, off = si+1, off+shard {
			n := min(len(data)-off, shard)
			st.ShardsTotal++
			st.PayloadTotal += uint64(n)
			if delta && si < len(prevHs) && prevHs[si] == hs[si] {
				continue
			}
			j := shardJob{data: data[off : off+n], rawLen: n,
				spanIdx: uint32(len(h.regions) + i), spanOff: uint64(off), done: make(chan struct{})}
			if hs != nil {
				j.hash = hs[si]
			}
			jobs = append(jobs, j)
			st.PayloadWritten += uint64(n)
		}
	}
	st.ShardsWritten = len(jobs)
	h.shards = len(jobs)
	if fz.chain {
		// The image identity is derived from lineage and content, not
		// randomness, so images stay byte-deterministic: two images collide
		// only when their lineage, section state (including the
		// ever-growing call log) and the active-malloc memory they carry
		// are identical — in which case confusing them is harmless.
		// SetParent verifies a delta's recorded parent identity against
		// the image it links, so a parent name overwritten with different
		// content fails the read instead of silently mixing states. The
		// fill-only shards are therefore hashed before the header goes out
		// (the pipeline writes the sums they get here).
		var fillJobs []*shardJob
		for i := range jobs {
			if j := &jobs[i]; j.data == nil && h.regions[j.spanIdx].FillOnly() {
				fillJobs = append(fillJobs, j)
			}
		}
		bgt := e.budget()
		err := par.ForErrCtx(ctx, e.Workers, len(fillJobs), func(k int) error {
			j := fillJobs[k]
			raw, bp, err := bgt.stage(j, shard, view)
			if err == nil {
				j.hash, j.needHash = shardSum(raw), false
			}
			if bp != nil {
				bgt.putShardBuf(bp)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		h.ID = imageID(h.ParentID, h.Depth, fz.cut, names, secHashes, fillSpans, fillJobs)
	}
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
		Name:       fz.selfName,
		ID:         h.ID,
		Depth:      h.Depth,
		Cut:        fz.cut,
		ShardSize:  shard,
		Hashes:     secHashes,
		Fills:      fillSpans,
		PluginCuts: fz.cuts,
		Ancestry:   ancestry,
	}, nil
}

// overlapsAny reports whether any of the ascending, disjoint spans
// overlaps [off, off+n).
func overlapsAny(spans []addrspace.Span, off, n uint64) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Off+spans[i].Len > off })
	return i < len(spans) && spans[i].Off < off+n
}

// covers reports whether the ascending, disjoint spans cover every byte
// of [addr, addr+n).
func covers(spans []addrspace.Span, addr, n uint64) bool {
	end := addr + n
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Off+spans[i].Len > addr })
	for ; i < len(spans) && addr < end; i++ {
		if spans[i].Off > addr {
			return false
		}
		addr = spans[i].Off + spans[i].Len
	}
	return addr >= end
}

// Minimum encoded sizes of one table entry (an empty label or name):
// what expect may count on before the strings have been read.
const (
	regionHdrMin  = 8 + 8 + 1 + 1 + 2 // start, len, prot, class, label length
	sectionHdrMin = 2 + 8 + 1         // name length, size, flags
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
			_, err = io.ReadFull(r, u[:2])
			rd.Prot, rd.Class = addrspace.Prot(u[0]), PrefetchClass(u[1])
		}
		if err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		switch {
		case rd.Len > maxItemBytes:
			return nil, fmt.Errorf("%w: region %d len %d", ErrBadImage, i, rd.Len)
		case rd.Class > ClassManaged:
			return nil, fmt.Errorf("%w: region %d class %d", ErrBadImage, i, rd.Class)
		case rd.Start+rd.Len < rd.Start:
			return nil, fmt.Errorf("%w: region %d wraps the address space", ErrBadImage, i)
		case i > 0 && rd.Start < h.regions[i-1].Start+h.regions[i-1].Len:
			return nil, fmt.Errorf("%w: region %d not above the one before it", ErrBadImage, i)
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
		if u[0] != 0 {
			return nil, fmt.Errorf("%w: section %d flags %#x", ErrBadImage, i, u[0])
		}
		h.secs = append(h.secs, SectionHdr{Name: name, Size: size})
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
	if uint64(encLen) != rawLen {
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

// ImageMeta is the cheap header-only view of a checkpoint image: enough
// to classify it and follow lineage without parsing tables or payload.
// The store's lineage graph is built from it.
type ImageMeta struct {
	Delta bool
	// Unhashed marks a standalone image: it belongs to no chain and its
	// shards carry no content hashes, so only its trailer covers its
	// payload.
	Unhashed bool
	Parent   string
	Depth    int
	// ID is the image's content-derived identity (0 for a standalone
	// image); ParentID the recorded identity of the parent (0 for a
	// base), which SetParent and chain verification match against the
	// parent actually found to catch a swapped or regenerated parent
	// whose name still matches.
	ID       uint64
	ParentID uint64
}

func (m *ImageMeta) flags() byte {
	var f byte
	if m.Delta {
		f |= flagDelta
	}
	if m.Unhashed {
		f |= flagUnhashed
	} else {
		f |= flagShardCRC
	}
	return f | flagSpanClass
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
	m := ImageMeta{Delta: flags&flagDelta != 0, Unhashed: flags&flagUnhashed != 0}
	switch {
	case flags&flagGzipRetired != 0:
		return ImageMeta{}, fmt.Errorf("%w: gzip-encoded shards", ErrUnsupportedVersion)
	case !m.Unhashed && flags&flagShardCRC == 0:
		return ImageMeta{}, fmt.Errorf("%w: chain image with FNV-1a shard hashes", ErrUnsupportedVersion)
	case flags&flagSpanClass == 0:
		return ImageMeta{}, fmt.Errorf("%w: span table without classes (active-malloc memory in a crac.devmem2 section)", ErrUnsupportedVersion)
	case m.Unhashed && flags&flagShardCRC != 0:
		return ImageMeta{}, fmt.Errorf("%w: standalone image claims shard sums", ErrBadImage)
	}
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
