package crac

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/cas"
)

// BatchExister is the optional Store extension behind chunk-level
// dedup across the wire: ExistsBatch reports which of the named
// entries the store already holds, in one round trip. HTTPStore
// implements it over the netstore batch-exists endpoint; a CASStore
// layered on such a backing skips uploading chunks the destination
// already has — the mechanism that makes migration pre-copy and
// supervisor uploads resumable and delta-aware.
type BatchExister interface {
	ExistsBatch(ctx context.Context, names []string) (map[string]bool, error)
}

// existsBatchWindow bounds how many novel chunks a CASStore Put stages
// before asking the backing which of them already exist: large enough
// to amortize a round trip, small enough to cap staged memory at a few
// shards.
const existsBatchWindow = 16

// CASStore layers chunk-level content-addressed dedup over any backing
// Store. Images written through it are split on v3 shard-frame
// boundaries (internal/cas); each shard payload is stored once per
// unique content under a SHA-256 key in the backing's "cas-" chunk
// namespace, and the image entry itself becomes a small manifest.
// Identical shards dedup across images, delta chains, sessions, and
// tenants sharing the backing.
//
// Reads reconstruct transparently — Get, GetAt, and List behave like
// any Store, chunks stay hidden — and entries written before the
// CASStore was layered on (plain images in the backing) read back
// unchanged, so an existing store can adopt CAS in place.
//
// Deleting an image removes only its manifest; unreferenced chunks are
// swept by GC (the Supervisor's CompactAfter step runs it after
// Compact). Concurrent Put/Get against GC is safe on one CASStore
// instance; run GC from a single owner per backing.
type CASStore struct {
	backing Store

	// gcMu fences the sweep: Put and the read paths hold it shared,
	// GC exclusively, so a chunk can never disappear between an
	// existence check and the manifest commit that references it.
	gcMu sync.RWMutex

	// mu guards the present cache below.
	mu      sync.Mutex
	present map[string]bool // chunk names known to exist in the backing
	warmed  bool            // present was seeded from a backing List
}

// NewCASStore returns a content-addressed deduplicating store over
// backing. The backing store holds manifests under the image names and
// chunk payloads under reserved "cas-" names.
func NewCASStore(backing Store) *CASStore {
	return &CASStore{backing: backing, present: make(map[string]bool)}
}

// Backing returns the underlying store (manifests + chunk namespace).
func (s *CASStore) Backing() Store { return s.backing }

func (s *CASStore) knownPresent(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.present[name]
}

func (s *CASStore) markPresent(name string) {
	s.mu.Lock()
	s.present[name] = true
	s.mu.Unlock()
}

// warm seeds the present cache from one backing List, so re-uploads
// into a store that already holds chunks (a fresh process, a second
// migration) dedup from the first image on.
func (s *CASStore) warm(ctx context.Context) {
	s.mu.Lock()
	warmed := s.warmed
	s.mu.Unlock()
	if warmed {
		return
	}
	names, err := s.backing.List(ctx)
	if err != nil {
		return // uploads are idempotent; try warming again next Put
	}
	s.mu.Lock()
	for _, n := range names {
		if cas.IsChunkName(n) {
			s.present[n] = true
		}
	}
	s.warmed = true
	s.mu.Unlock()
}

// pendingChunk is one staged, not-yet-uploaded chunk of a Put.
type pendingChunk struct {
	name string
	buf  *[]byte
	n    int
}

// Put implements Store: the image write streams through the chunker,
// novel chunks are uploaded (in existence-checked batches), and the
// manifest commits last — so a failed write publishes nothing, and a
// committed manifest never references a chunk that was not durably
// stored first.
func (s *CASStore) Put(ctx context.Context, name string, write func(w io.Writer) error) error {
	if err := validateImageName(name); err != nil {
		return err
	}
	if cas.IsChunkName(name) {
		return fmt.Errorf("%w: image name %q collides with the chunk namespace", ErrBadImage, name)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.gcMu.RLock()
	defer s.gcMu.RUnlock()
	s.warm(ctx)

	var pending []pendingChunk
	inPending := make(map[string]bool)
	defer func() {
		for _, pc := range pending {
			cas.ReleaseBuf(pc.buf)
		}
	}()

	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		// Ask the backing (in one round trip, when it can answer) which
		// staged chunks it already holds; everything else uploads.
		var unknown []string
		for _, pc := range pending {
			if !s.knownPresent(pc.name) {
				unknown = append(unknown, pc.name)
			}
		}
		if len(unknown) > 0 {
			if have, err := existsBatch(ctx, s.backing, unknown); err == nil {
				for n, ok := range have {
					if ok {
						s.markPresent(n)
					}
				}
			} else if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			// On a failed existence check, fall through and upload:
			// chunk writes are idempotent (same key, same bytes).
		}
		for i, pc := range pending {
			if s.knownPresent(pc.name) {
				cas.ReleaseBuf(pc.buf)
				pending[i].buf = nil
				continue
			}
			data := (*pc.buf)[:pc.n]
			err := s.backing.Put(ctx, pc.name, func(w io.Writer) error {
				_, werr := w.Write(data)
				return werr
			})
			cas.ReleaseBuf(pc.buf)
			pending[i].buf = nil
			if err != nil {
				return fmt.Errorf("storing chunk %s of %q: %w", pc.name, name, err)
			}
			s.markPresent(pc.name)
		}
		pending = pending[:0]
		for n := range inPending {
			delete(inPending, n)
		}
		return nil
	}

	ch := cas.NewChunker(func(chunk string, buf *[]byte, n int) error {
		if s.knownPresent(chunk) || inPending[chunk] {
			cas.ReleaseBuf(buf)
			return nil
		}
		pending = append(pending, pendingChunk{name: chunk, buf: buf, n: n})
		inPending[chunk] = true
		if len(pending) >= existsBatchWindow {
			return flush()
		}
		return nil
	})
	if err := write(ch); err != nil {
		return err
	}
	man, err := ch.Finish()
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	return s.backing.Put(ctx, name, man.Encode)
}

// readManifest fetches and decodes the manifest stored under name;
// (nil, nil) when the entry is not a manifest (a pre-CAS image).
func (s *CASStore) readManifest(ctx context.Context, name string) (*cas.Manifest, []byte, error) {
	rc, err := s.backing.Get(ctx, name)
	if err != nil {
		return nil, nil, err
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		return nil, nil, err
	}
	if !cas.IsManifestHeader(data) {
		return nil, data, nil
	}
	man, err := cas.DecodeManifest(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: manifest %q: %v", ErrCorruptImage, name, err)
	}
	return man, data, nil
}

// Get implements Store. A manifest entry is reconstructed from its
// chunks eagerly, under the GC fence, so the returned stream can never
// observe a concurrent sweep; a non-manifest entry passes through
// verbatim.
func (s *CASStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	if err := validateImageName(name); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.gcMu.RLock()
	defer s.gcMu.RUnlock()
	man, raw, err := s.readManifest(ctx, name)
	if err != nil {
		return nil, err
	}
	if man == nil {
		return io.NopCloser(bytes.NewReader(raw)), nil
	}
	out := bytes.NewBuffer(make([]byte, 0, man.Length))
	for i := range man.Segments {
		seg := &man.Segments[i]
		if !seg.IsChunk() {
			out.Write(seg.Inline)
			continue
		}
		if err := s.appendChunk(ctx, out, seg, name); err != nil {
			return nil, err
		}
	}
	return io.NopCloser(bytes.NewReader(out.Bytes())), nil
}

// appendChunk streams one referenced chunk into out, verifying its
// recorded length.
func (s *CASStore) appendChunk(ctx context.Context, out *bytes.Buffer, seg *cas.Segment, name string) error {
	cname := seg.ChunkName()
	rc, err := s.backing.Get(ctx, cname)
	if err != nil {
		if errors.Is(err, ErrImageNotFound) {
			return fmt.Errorf("%w: %q references missing chunk %s", ErrCorruptImage, name, cname)
		}
		return err
	}
	n, cerr := io.Copy(out, rc)
	rc.Close()
	if cerr != nil {
		return cerr
	}
	if uint64(n) != seg.Length {
		return fmt.Errorf("%w: chunk %s holds %d bytes, manifest %q expects %d",
			ErrCorruptImage, cname, n, name, seg.Length)
	}
	return nil
}

// List implements Store: the backing's names minus the chunk
// namespace.
func (s *CASStore) List(ctx context.Context) ([]string, error) {
	names, err := s.backing.List(ctx)
	if err != nil {
		return nil, err
	}
	out := names[:0]
	for _, n := range names {
		if !cas.IsChunkName(n) {
			out = append(out, n)
		}
	}
	return out, nil
}

// Delete implements Store: it removes the manifest only. Chunks the
// image referenced stay until GC proves nothing else references them.
func (s *CASStore) Delete(ctx context.Context, name string) error {
	return s.backing.Delete(ctx, name)
}

// GetAt implements RandomAccessStore. A manifest entry yields a lazy
// reader that serves inline bytes from the manifest and reads chunk
// bytes from the backing on demand, straight into the caller's buffer,
// so a lazy restart over a CASStore fetches only the chunks its shards
// actually touch; non-manifest entries delegate to the backing.
func (s *CASStore) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	if err := validateImageName(name); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	s.gcMu.RLock()
	defer s.gcMu.RUnlock()
	ra, size, err := s.backing.GetAt(ctx, name)
	if err != nil {
		return nil, 0, err
	}
	var head [8]byte
	n, _ := ra.ReadAt(head[:], 0)
	if !cas.IsManifestHeader(head[:n]) {
		return ra, size, nil
	}
	manBytes := make([]byte, size)
	if _, err := ra.ReadAt(manBytes, 0); err != nil && err != io.EOF {
		ra.Close()
		return nil, 0, err
	}
	ra.Close()
	man, err := cas.DecodeManifest(bytes.NewReader(manBytes))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: manifest %q: %v", ErrCorruptImage, name, err)
	}
	r := &casReaderAt{ctx: ctx, s: s, name: name, size: int64(man.Length),
		segs: man.Segments, offs: make([]uint64, len(man.Segments))}
	var off uint64
	for i := range man.Segments {
		r.offs[i] = off
		off += man.Segments[i].Length
	}
	return r, r.size, nil
}

// casReaderAt serves random-access reads through a manifest. It holds
// no chunk bytes: the index scan reads inline segments only, and the
// restorer above decodes every shard once, so nothing would hit a
// cache. Safe for concurrent ReadAt, like every store handle.
type casReaderAt struct {
	ctx  context.Context
	s    *CASStore
	name string
	segs []cas.Segment
	offs []uint64 // start offset of each segment
	size int64
}

func (r *casReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("crac: %q: negative read offset %d", r.name, off)
	}
	if off >= r.size {
		return 0, io.EOF
	}
	want := len(p)
	if max := r.size - off; int64(len(p)) > max {
		p = p[:max]
	}
	n := 0
	for n < len(p) {
		pos := uint64(off) + uint64(n)
		i := sort.Search(len(r.offs), func(i int) bool { return r.offs[i] > pos }) - 1
		seg := &r.segs[i]
		at := pos - r.offs[i]
		if !seg.IsChunk() {
			n += copy(p[n:], seg.Inline[at:])
			continue
		}
		dst := p[n:]
		if rest := seg.Length - at; uint64(len(dst)) > rest {
			dst = dst[:rest]
		}
		if err := r.readChunk(seg, at, dst); err != nil {
			return n, err
		}
		n += len(dst)
	}
	if n < want {
		return n, io.EOF
	}
	return n, nil
}

// readChunk fills dst with bytes [at, at+len(dst)) of one referenced
// chunk, under the GC fence. A range short of the whole chunk is read
// through the backing's GetAt; a whole chunk streams through Get — one
// round trip. Either way the stored length is checked against the
// manifest.
func (r *casReaderAt) readChunk(seg *cas.Segment, at uint64, dst []byte) error {
	name := seg.ChunkName()
	missing := func(err error) error {
		if errors.Is(err, ErrImageNotFound) {
			return fmt.Errorf("%w: %q references missing chunk %s", ErrCorruptImage, r.name, name)
		}
		return err
	}
	wrongLength := func(stored int64) error {
		return fmt.Errorf("%w: chunk %s holds %d bytes, manifest %q expects %d",
			ErrCorruptImage, name, stored, r.name, seg.Length)
	}
	r.s.gcMu.RLock()
	defer r.s.gcMu.RUnlock()
	if uint64(len(dst)) < seg.Length {
		ra, size, err := r.s.backing.GetAt(r.ctx, name)
		if err != nil {
			return missing(err)
		}
		defer ra.Close()
		if uint64(size) != seg.Length {
			return wrongLength(size)
		}
		if n, err := ra.ReadAt(dst, int64(at)); n < len(dst) {
			return err
		}
		return nil
	}
	rc, err := r.s.backing.Get(r.ctx, name)
	if err != nil {
		return missing(err)
	}
	defer rc.Close()
	stored, err := io.CopyN(io.Discard, rc, int64(at))
	if err == nil {
		var n int
		n, err = io.ReadFull(rc, dst)
		stored += int64(n)
	}
	if err == nil {
		var tail int64
		tail, err = io.Copy(io.Discard, rc)
		stored += tail
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	if uint64(stored) != seg.Length {
		return wrongLength(stored)
	}
	return nil
}

func (r *casReaderAt) Close() error { return nil }

// GCStats reports one chunk garbage collection pass.
type GCStats struct {
	// Manifests is the number of manifest entries scanned for
	// references; Chunks the chunk entries found.
	Manifests int
	Chunks    int
	// Swept counts the unreferenced chunks removed.
	Swept int
}

// GC sweeps chunks no manifest references. It takes the store's write
// fence exclusively: no Put, Get, or chunk fault runs concurrently, so
// a chunk referenced by any live manifest — including one mid-commit —
// is never collected. Entries that are not manifests (pre-CAS images,
// foreign bytes) hold no references and are left alone.
func (s *CASStore) GC(ctx context.Context) (GCStats, error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	var st GCStats
	names, err := s.backing.List(ctx)
	if err != nil {
		return st, err
	}
	referenced := make(map[string]bool)
	var chunks []string
	for _, n := range names {
		if cas.IsChunkName(n) {
			chunks = append(chunks, n)
			continue
		}
		man, _, err := s.readManifest(ctx, n)
		if err != nil {
			if errors.Is(err, ErrImageNotFound) {
				continue // raced a concurrent external delete
			}
			// An unreadable entry might reference anything: sweeping
			// now could collect a live chunk. Abort conservatively.
			return st, fmt.Errorf("crac: gc: reading %q: %w", n, err)
		}
		if man == nil {
			continue
		}
		st.Manifests++
		for _, ref := range man.ChunkRefs() {
			referenced[ref] = true
		}
	}
	st.Chunks = len(chunks)
	for _, c := range chunks {
		if referenced[c] {
			continue
		}
		if err := s.backing.Delete(ctx, c); err != nil && !errors.Is(err, ErrImageNotFound) {
			return st, fmt.Errorf("crac: gc: sweeping %s: %w", c, err)
		}
		s.mu.Lock()
		delete(s.present, c)
		s.mu.Unlock()
		st.Swept++
	}
	return st, nil
}

// DedupLineage is one delta lineage in a DedupStats report: the name
// of a chain tip (an image no other image names as parent) and its
// chain depth, the ancestors it reaches in the store.
type DedupLineage struct {
	Tip   string
	Depth int
}

// DedupStats reports how much a store dedups: the bytes its manifests
// logically reference versus the unique chunk bytes actually stored.
type DedupStats struct {
	// Images counts non-chunk entries; Manifests the subset stored
	// content-addressed.
	Images    int
	Manifests int
	// Chunks / ChunkRefs count unique chunks referenced vs total
	// references to them.
	Chunks    int
	ChunkRefs int
	// UniqueChunkBytes is each referenced chunk counted once —
	// what the chunk namespace stores. ReferencedChunkBytes counts
	// every reference — what a non-deduplicating store would hold.
	UniqueChunkBytes     uint64
	ReferencedChunkBytes uint64
	// InlineBytes are manifest-inline stream bytes (headers, trailers).
	InlineBytes uint64
	// Orphans counts stored chunks no manifest references (pending GC).
	Orphans int
	// Lineages lists every chain tip with its depth.
	Lineages []DedupLineage
}

// Ratio is the chunk dedup factor: referenced over unique bytes (1
// when nothing dedups, 0 when the store holds no chunks).
func (d *DedupStats) Ratio() float64 {
	if d.UniqueChunkBytes == 0 {
		return 0
	}
	return float64(d.ReferencedChunkBytes) / float64(d.UniqueChunkBytes)
}

// DedupReport scans a store and reports its dedup ratio and chain
// depths. Pass the CASStore itself (its backing is scanned) or any
// plain Store (chunk stats are then zero, lineages still reported).
func DedupReport(ctx context.Context, store Store) (*DedupStats, error) {
	backing := store
	if cs, ok := store.(*CASStore); ok {
		backing = cs.backing
	}
	names, err := backing.List(ctx)
	if err != nil {
		return nil, err
	}
	st := &DedupStats{}
	uniq := make(map[string]uint64) // chunk name -> size
	stored := make(map[string]bool) // chunk entries present in the backing
	g := &lineageGraph{nodes: make(map[string]*lineageNode)}
	for _, n := range names {
		if cas.IsChunkName(n) {
			stored[n] = true
			continue
		}
		st.Images++
		rc, err := backing.Get(ctx, n)
		if err != nil {
			if errors.Is(err, ErrImageNotFound) {
				continue
			}
			return nil, err
		}
		br := bufio.NewReader(rc)
		head, _ := br.Peek(8)
		if cas.IsManifestHeader(head) {
			man, err := cas.DecodeManifest(br)
			rc.Close()
			if err != nil {
				return nil, fmt.Errorf("manifest %q: %w", n, err)
			}
			st.Manifests++
			g.nodes[n] = &lineageNode{parent: man.Parent}
			for i := range man.Segments {
				seg := &man.Segments[i]
				if !seg.IsChunk() {
					st.InlineBytes += seg.Length
					continue
				}
				st.ChunkRefs++
				st.ReferencedChunkBytes += seg.Length
				uniq[seg.ChunkName()] = seg.Length
			}
			continue
		}
		node, err := parseHeader(br)
		rc.Close()
		if err == nil {
			g.nodes[n] = node
		}
	}
	st.Chunks = len(uniq)
	for _, size := range uniq {
		st.UniqueChunkBytes += size
	}
	for c := range stored {
		if _, ok := uniq[c]; !ok {
			st.Orphans++
		}
	}
	for _, tip := range g.tips() {
		ancestors, _ := g.ancestors(tip)
		st.Lineages = append(st.Lineages, DedupLineage{Tip: tip, Depth: len(ancestors)})
	}
	return st, nil
}
