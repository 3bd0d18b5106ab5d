// Package dmtcp simulates the parts of DMTCP that CRAC delegates to: a
// checkpoint engine that serializes the *upper half only* of a split
// process to an image, a plugin interface with the
// freeze → emit/resume and restart hook lifecycle (the DMTCP plugin
// model of Arya et al. that CRAC builds on), the restorer that brings an
// image back (lazy.go), and a coordinator for multi-rank coordinated
// checkpoints (the MPI+CUDA proof of principle of Section 6).
//
// The image deliberately excludes every lower-half region: the active
// CUDA library and its arenas are *not* checkpointed; a fresh lower half
// is constructed at restart and brought up to date by the CRAC plugin's
// log replay (paper Section 3.1).
//
// # Image formats
//
// Two image formats exist. v1 ("CRACIMG1") is the original serial
// layout: an optional whole-body gzip stream of interleaved region
// headers and payloads. v2 ("CRACIMG2") is the chunked layout written by
// the parallel pipeline: all region and section headers first, then the
// concatenated payload split into fixed-size shards, each shard framed
// as {rawLen, encLen, bytes}. With gzip enabled every shard is an
// independent gzip member, so shards compress on separate CPUs and the
// concatenation remains a valid multistream gzip payload. Shard
// boundaries depend only on the shard size, never on the worker count,
// so a v2 image is byte-identical whether written serially or by N
// workers. ReadImage accepts both formats.
package dmtcp

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/addrspace"
	"repro/internal/par"
)

// SectionMap carries named plugin payloads inside a checkpoint image.
type SectionMap struct {
	order  []string
	m      map[string][]byte
	opaque map[string]bool
}

// NewSectionMap returns an empty section map.
func NewSectionMap() *SectionMap {
	return &SectionMap{m: make(map[string][]byte), opaque: make(map[string]bool)}
}

// MarkOpaque declares a section's bytes self-delta-encoded: the v3
// delta writer must not apply generic shard-level deduplication to it
// (the owning plugin already emitted an incremental encoding), and
// chain materialization resolves it through a registered SectionMerger
// instead of byte-offset inheritance.
func (s *SectionMap) MarkOpaque(name string) { s.opaque[name] = true }

// Opaque reports whether the section was marked with MarkOpaque.
func (s *SectionMap) Opaque(name string) bool { return s.opaque[name] }

// Add stores a section, replacing any previous content under name.
func (s *SectionMap) Add(name string, data []byte) {
	if _, ok := s.m[name]; !ok {
		s.order = append(s.order, name)
	}
	s.m[name] = data
}

// AddZero installs a zero-filled section of exactly size bytes and
// returns the slice for the caller to fill in place. Callers that know
// their payload layout up front (the CRAC plugin's active-malloc drain)
// fill disjoint ranges from many goroutines without any intermediate
// buffer or regrowth copy.
func (s *SectionMap) AddZero(name string, size int) []byte {
	b := make([]byte, size)
	s.Add(name, b)
	return b
}

// Get returns a section's content.
func (s *SectionMap) Get(name string) ([]byte, bool) {
	b, ok := s.m[name]
	return b, ok
}

// Names returns section names in insertion order.
func (s *SectionMap) Names() []string { return append([]string(nil), s.order...) }

// SectionWriter streams content into one section; see SectionMap.Writer.
type SectionWriter struct {
	sm   *SectionMap
	name string
	buf  []byte
}

// Writer returns a streaming writer for the named section. sizeHint
// preallocates capacity (0 is fine); the section becomes visible in the
// map when Close is called. This replaces the bytes.Buffer-then-copy
// idiom for producers that don't know their final size.
func (s *SectionMap) Writer(name string, sizeHint int) *SectionWriter {
	return &SectionWriter{sm: s, name: name, buf: make([]byte, 0, sizeHint)}
}

// Write implements io.Writer.
func (w *SectionWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Close publishes the accumulated bytes as the section content.
func (w *SectionWriter) Close() error {
	w.sm.Add(w.name, w.buf)
	return nil
}

// Plugin is a DMTCP plugin: CRAC registers one to drain the GPU and save
// CUDA state before the image is written, and to rebuild the lower half
// at restart.
type Plugin interface {
	// Name identifies the plugin.
	Name() string
	// Freeze runs inside the stop-the-world window: drain, then capture
	// every non-memory input of the checkpoint (call-log prefix, active
	// sets, epoch cuts) — quickly. The returned EmitFunc produces the
	// plugin's sections later, from the capture plus the memory view it
	// is handed. since is the parent checkpoint's epoch cut (0 for a
	// base — everything is dirty), letting the plugin skip or
	// delta-encode state it can prove unchanged; incremental selects the
	// v3 section encoding. The engine never proceeds to the image body
	// after a hook error.
	Freeze(since uint64, incremental bool) (EmitFunc, error)
	// Resume runs after a successful checkpoint, when the original
	// process continues.
	Resume() error
	// LazyRestart runs in the restarted process after the upper-half
	// regions are mapped: instead of refilling its state, the plugin
	// registers fill plans on the restorer (reading small sections
	// eagerly through it), and the restorer materializes them on first
	// access or in its background drain.
	LazyRestart(ctx context.Context, r *LazyRestorer) error
}

// RegionData is one serialized upper-half region.
type RegionData struct {
	Start uint64
	Len   uint64
	Prot  addrspace.Prot
	Label string
	Data  []byte
}

// Image is a parsed checkpoint image.
type Image struct {
	Version  int // image format version (1, 2 or 3)
	Gzip     bool
	Regions  []RegionData
	Sections *SectionMap

	// Verified reports that the stream carried an integrity trailer and
	// its whole-image checksum matched. False means a legacy, pre-trailer
	// image: still readable, but only per-shard hashes (v3) or the gzip
	// CRC (v1+gzip) guard its bytes.
	Verified bool

	// Delta is non-nil for v3 images. A v3 base parses to a complete
	// (materialized) image; a v3 delta holds only its dirty shards until
	// ApplyDelta / ResolveChain combines it with its parent chain —
	// Regions carry no Data and Sections is empty until then.
	Delta *DeltaInfo
}

// Complete reports whether the image carries its full payload (v1/v2
// images always do; v3 deltas only after chain materialization).
func (img *Image) Complete() bool {
	return img.Delta == nil || img.Delta.Materialized
}

// TotalRegionBytes sums the serialized region payloads.
func (img *Image) TotalRegionBytes() uint64 {
	var n uint64
	for _, r := range img.Regions {
		n += r.Len
	}
	return n
}

// Stats describes one checkpoint operation.
type Stats struct {
	Regions      int
	RegionBytes  uint64
	SectionBytes uint64
	// Duration is the wall time of the whole checkpoint, including
	// plugin hooks. WriteDuration covers only serializing the image
	// body; HookDuration covers the plugin emits and Resume hooks.
	// Benchmarks should attribute image-write cost to WriteDuration:
	// the old single Duration silently folded hook time in.
	// PauseDuration is the application-visible stop-the-world window: the
	// drain + copy-on-write arming of a session checkpoint (the rest
	// overlaps execution); the live-view reference pauses for its whole
	// Duration.
	Duration      time.Duration
	WriteDuration time.Duration
	HookDuration  time.Duration
	PauseDuration time.Duration

	// Restart timing split (Session.RestartAsync).
	// RestoreVisibleDuration is the application-blocking phase: index
	// scan, verification, lower-half rebuild, and log replay — everything
	// before the first kernel can launch. RestoreBackgroundDuration is
	// the prefetcher drain; RestoreDuration the total until the image
	// was fully materialized.
	RestoreDuration           time.Duration
	RestoreVisibleDuration    time.Duration
	RestoreBackgroundDuration time.Duration

	// Incremental (v3) accounting. ShardsTotal and PayloadTotal cover
	// the full span layout of the checkpointed state; ShardsWritten and
	// PayloadWritten count only the emitted (dirty) shards — for a full
	// image the pairs are equal. Delta reports whether the image was a
	// delta, and DeltaDepth its distance from the chain's base.
	Delta          bool
	DeltaDepth     int
	ShardsTotal    int
	ShardsWritten  int
	PayloadTotal   uint64
	PayloadWritten uint64
}

// DirtyRatio is PayloadWritten over PayloadTotal — the fraction of the
// checkpointed state a delta actually carried (1 for a full image).
func (st Stats) DirtyRatio() float64 {
	if st.PayloadTotal == 0 {
		return 1
	}
	return float64(st.PayloadWritten) / float64(st.PayloadTotal)
}

// DefaultShardSize is the payload shard granularity of the v2 pipeline:
// large enough that per-shard framing and goroutine handoff are noise,
// small enough that a handful of regions still fans out across CPUs.
const DefaultShardSize = 1 << 20

// Engine writes and restores checkpoint images for one process.
type Engine struct {
	// Gzip enables image compression. The paper's experiments disable
	// DMTCP's default gzip compression (Section 4.4.1), so false is the
	// default here too.
	Gzip bool
	// GzipLevel selects the compression level when Gzip is on
	// (gzip.BestSpeed..gzip.BestCompression); 0 means
	// gzip.DefaultCompression.
	GzipLevel int
	// Workers bounds the checkpoint pipeline fan-out: <=0 uses all
	// CPUs, 1 runs the serial reference path (same image bytes).
	Workers int
	// ShardSize overrides DefaultShardSize (v2 images only).
	ShardSize int
	// ImageVersion selects the written format: 0 or 2 for the chunked
	// v2 layout, 1 for the legacy serial layout.
	ImageVersion int

	// ShardHook, when set, runs in commit order just before each payload
	// shard is written to the image stream; returning an error aborts the
	// checkpoint with that error. Fault-injection tests use it to fail
	// the writer mid-image at a chosen shard.
	ShardHook func(shard int) error

	// Budget, when set, attaches this engine to a shared resourcing
	// domain: pipeline workers acquire a slot from it for each shard
	// they process, and staging/compression buffers recycle through its
	// pools instead of the package-wide ones. Engines sharing one
	// budget (a crac.Pool) run a bounded worker set regardless of how
	// many of them checkpoint at once. nil uses the package default
	// (unbounded, per-process pools).
	Budget *WorkerBudget

	plugins []Plugin
}

// NewEngine returns an engine with no plugins.
func NewEngine() *Engine { return &Engine{} }

// Register appends a plugin. Hooks run in registration order for
// Freeze/emit/LazyRestart and reverse order for Resume.
func (e *Engine) Register(p Plugin) { e.plugins = append(e.plugins, p) }

var (
	imageMagicV1 = [8]byte{'C', 'R', 'A', 'C', 'I', 'M', 'G', '1'}
	imageMagicV2 = [8]byte{'C', 'R', 'A', 'C', 'I', 'M', 'G', '2'}
	imageMagicV3 = [8]byte{'C', 'R', 'A', 'C', 'I', 'M', 'G', '3'}
)

// ErrBadImage reports a malformed checkpoint image.
var ErrBadImage = errors.New("dmtcp: bad checkpoint image")

// ErrUnsupportedVersion reports a checkpoint image whose format version
// this build does not speak: the CRACIMG magic prefix matched, but the
// version digit is newer (or older) than the reader understands, or an
// engine was asked to write an unknown version. Distinct from
// ErrBadImage so callers can tell "not an image" from "an image from a
// different release".
var ErrUnsupportedVersion = errors.New("dmtcp: unsupported image version")

// Decoder sanity caps. The simulated windows are 2 GiB each, so any
// single region or section beyond maxItemBytes, or counts beyond
// maxItemCount, can only come from a corrupt or hostile image; rejecting
// them up front keeps the decoder safe on fuzzed input.
const (
	maxItemBytes  = 1 << 31
	maxTotalBytes = 1 << 33
	maxItemCount  = 1 << 20
	maxFrameBytes = 1 << 30
)

func (e *Engine) shardSize() int {
	if e.ShardSize <= 0 {
		return DefaultShardSize
	}
	// A frame's rawLen must stay under the reader's maxFrameBytes cap,
	// or the written image could never be read back.
	if e.ShardSize > maxFrameBytes {
		return maxFrameBytes
	}
	return e.ShardSize
}

// v1GzipPool recycles the whole-body gzip writer of the v1 serial
// format across checkpoints (Reset re-arms a closed writer); v1 always
// compresses at the default level, so every pooled writer fits.
var v1GzipPool sync.Pool

// v1GzipHeader is the member header every v1+gzip image starts its
// body with: the gzip magic, deflate, no flags, no mtime, default-level
// XFL, and the Go writer's "unknown" OS byte.
var v1GzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// v1ChunkPool recycles the bounded payload chunk buffer of writeBodyV1.
var v1ChunkPool sync.Pool

// writeImageV1 emits the legacy serial format: interleaved region
// headers and payloads, optionally wrapped in a single gzip stream.
func (e *Engine) writeImageV1(ctx context.Context, w io.Writer, view addrspace.View, regions []addrspace.RegionInfo, sections *SectionMap, st *Stats) error {
	if _, err := w.Write(imageMagicV1[:]); err != nil {
		return err
	}
	var flags [4]byte
	if e.Gzip {
		flags[0] = 1
	}
	if _, err := w.Write(flags[:]); err != nil {
		return err
	}
	body := w
	var gz *gzip.Writer
	if e.Gzip {
		if pw, _ := v1GzipPool.Get().(*gzip.Writer); pw != nil {
			pw.Reset(w)
			gz = pw
		} else {
			gz = gzip.NewWriter(w)
		}
		body = gz
	}
	if err := writeBodyV1(ctx, body, view, regions, sections, st, e.shardSize()); err != nil {
		return err
	}
	if gz != nil {
		err := gz.Close()
		v1GzipPool.Put(gz)
		return err
	}
	return nil
}

func writeBodyV1(ctx context.Context, w io.Writer, view addrspace.View, regions []addrspace.RegionInfo, sections *SectionMap, st *Stats, chunk int) error {
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(regions)))
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	// One bounded, pooled chunk buffer: region payloads stream through
	// it instead of a grow-only whole-region buffer, and the buffer
	// itself is recycled across checkpoints instead of reallocated per
	// image.
	bp, _ := v1ChunkPool.Get().(*[]byte)
	if bp == nil || cap(*bp) < chunk {
		b := make([]byte, chunk)
		bp = &b
	}
	defer v1ChunkPool.Put(bp)
	buf := (*bp)[:chunk]
	for _, ri := range regions {
		binary.LittleEndian.PutUint64(u64[:], ri.Start)
		if _, err := w.Write(u64[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(u64[:], ri.Len)
		if _, err := w.Write(u64[:]); err != nil {
			return err
		}
		if _, err := w.Write([]byte{byte(ri.Prot)}); err != nil {
			return err
		}
		if err := writeString(w, ri.Label); err != nil {
			return err
		}
		for off := uint64(0); off < ri.Len; off += uint64(chunk) {
			if err := ctx.Err(); err != nil {
				return err
			}
			n := ri.Len - off
			if n > uint64(chunk) {
				n = uint64(chunk)
			}
			if err := view.ReadAt(ri.Start+off, buf[:n]); err != nil {
				return fmt.Errorf("dmtcp: reading region %v: %w", ri, err)
			}
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
		}
		st.RegionBytes += ri.Len
	}
	names := sections.Names()
	binary.LittleEndian.PutUint32(u32[:], uint32(len(names)))
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	for _, name := range names {
		data, _ := sections.Get(name)
		if err := writeString(w, name); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(u64[:], uint64(len(data)))
		if _, err := w.Write(u64[:]); err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		st.SectionBytes += uint64(len(data))
	}
	return nil
}

// shardJob is one unit of the v2/v3 write pipeline: a payload shard to
// be read from the address space (regions) or sliced from memory
// (sections), optionally compressed, and written in index order. v3
// jobs additionally carry the shard's span address and content hash,
// framed into the extended v3 shard header.
type shardJob struct {
	addr   uint64 // source address when reading from the space
	src    []byte // in-memory source (section shard); nil for regions
	rawLen int

	v3      bool
	spanIdx uint32 // destination span (regions, then sections)
	spanOff uint64 // offset within the span
	hash    uint64 // FNV-1a of the raw bytes
	hashed  bool   // hash precomputed (section shards); else workers fill it

	enc    []byte        // framed payload, valid once done is closed
	rawBuf *[]byte       // pooled region buffer to recycle after consumption
	encBuf *bytes.Buffer // pooled compression buffer to recycle
	err    error
	done   chan struct{}
}

// writeImageV2 emits the chunked format through the parallel pipeline:
// workers read shards out of the address space (and compress them when
// gzip is on) concurrently, while this goroutine streams the frames to w
// in deterministic shard order.
func (e *Engine) writeImageV2(ctx context.Context, w io.Writer, view addrspace.View, regions []addrspace.RegionInfo, sections *SectionMap, st *Stats) error {
	if _, err := w.Write(imageMagicV2[:]); err != nil {
		return err
	}
	var flags [4]byte
	if e.Gzip {
		flags[0] = 1
	}
	if _, err := w.Write(flags[:]); err != nil {
		return err
	}

	// Header tables: regions then sections, no payload. Headers are tiny
	// and stay uncompressed so the reader can size every destination
	// before the first payload byte arrives.
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(regions)))
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	for _, ri := range regions {
		binary.LittleEndian.PutUint64(u64[:], ri.Start)
		if _, err := w.Write(u64[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(u64[:], ri.Len)
		if _, err := w.Write(u64[:]); err != nil {
			return err
		}
		if _, err := w.Write([]byte{byte(ri.Prot)}); err != nil {
			return err
		}
		if err := writeString(w, ri.Label); err != nil {
			return err
		}
		st.RegionBytes += ri.Len
	}
	names := sections.Names()
	binary.LittleEndian.PutUint32(u32[:], uint32(len(names)))
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	for _, name := range names {
		data, _ := sections.Get(name)
		if err := writeString(w, name); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(u64[:], uint64(len(data)))
		if _, err := w.Write(u64[:]); err != nil {
			return err
		}
		st.SectionBytes += uint64(len(data))
	}
	shard := e.shardSize()
	binary.LittleEndian.PutUint32(u32[:], uint32(shard))
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}

	// Shard plan: deterministic, independent of the worker count, so the
	// image bytes are identical for any Workers setting.
	var jobs []shardJob
	for _, ri := range regions {
		for off := uint64(0); off < ri.Len; off += uint64(shard) {
			n := ri.Len - off
			if n > uint64(shard) {
				n = uint64(shard)
			}
			jobs = append(jobs, shardJob{addr: ri.Start + off, rawLen: int(n), done: make(chan struct{})})
		}
	}
	for _, name := range names {
		data, _ := sections.Get(name)
		for off := 0; off < len(data); off += shard {
			n := len(data) - off
			if n > shard {
				n = shard
			}
			jobs = append(jobs, shardJob{src: data[off : off+n], rawLen: n, done: make(chan struct{})})
		}
	}
	return e.runWritePipeline(ctx, w, view, jobs)
}

func (e *Engine) runWritePipeline(ctx context.Context, w io.Writer, view addrspace.View, jobs []shardJob) error {
	shard := e.shardSize()
	// Per-shard staging buffers, compression buffers, and per-level
	// gzip writers recycle through the engine's WorkerBudget across
	// checkpoints (not just within one image write), so a steady
	// checkpoint cadence stops allocating its data path; the budget's
	// worker slots bound how many shards are in flight across every
	// engine sharing it.
	bgt := e.budget()
	// Reading through a copy-on-write snapshot: drop each region shard's
	// retained pages as soon as its frame is written, bounding the
	// snapshot's peak memory to roughly the in-flight shard window.
	releaser, _ := view.(addrspace.RangeReleaser)

	process := func(j *shardJob, gz *gzip.Writer) {
		// A cancelled context turns every remaining shard into a no-op:
		// the pipeline protocol (every job completes, in order) is kept,
		// but no further memory is read or compressed, so a deadline
		// aborts the image write promptly mid-stream.
		if err := ctx.Err(); err != nil {
			j.err = err
			return
		}
		raw := j.src
		if raw == nil {
			j.rawBuf = bgt.getShardBuf(shard)
			raw = (*j.rawBuf)[:j.rawLen]
			if err := view.ReadAt(j.addr, raw); err != nil {
				j.err = fmt.Errorf("dmtcp: reading shard %#x+%d: %w", j.addr, j.rawLen, err)
				return
			}
		}
		if j.v3 && !j.hashed {
			j.hash = fnvSum64(raw)
			j.hashed = true
		}
		if gz == nil {
			j.enc = raw
			return
		}
		// One gzip member per shard: members concatenate into a valid
		// multistream payload, and each compresses on its own CPU.
		buf := bgt.getEncBuf()
		buf.Reset()
		gz.Reset(buf)
		if _, err := gz.Write(raw); err != nil {
			j.err = err
			return
		}
		if err := gz.Close(); err != nil {
			j.err = err
			return
		}
		j.enc = buf.Bytes()
		j.encBuf = buf
		if j.rawBuf != nil {
			bgt.putShardBuf(j.rawBuf)
			j.rawBuf = nil
		}
	}

	level := e.GzipLevel
	if level == 0 {
		level = gzip.DefaultCompression
	}
	newGz := func() (*gzip.Writer, error) {
		if !e.Gzip {
			return nil, nil
		}
		return bgt.getGz(level)
	}

	var hdr [shardHdrV3]byte
	consume := func(i int, j *shardJob) error {
		if j.err != nil {
			return j.err
		}
		if e.ShardHook != nil {
			if err := e.ShardHook(i); err != nil {
				j.enc = nil
				if j.rawBuf != nil {
					bgt.putShardBuf(j.rawBuf)
					j.rawBuf = nil
				}
				if j.encBuf != nil {
					bgt.putEncBuf(j.encBuf)
					j.encBuf = nil
				}
				return err
			}
		}
		var h []byte
		if j.v3 {
			binary.LittleEndian.PutUint32(hdr[0:], j.spanIdx)
			binary.LittleEndian.PutUint64(hdr[4:], j.spanOff)
			binary.LittleEndian.PutUint32(hdr[12:], uint32(j.rawLen))
			binary.LittleEndian.PutUint32(hdr[16:], uint32(len(j.enc)))
			binary.LittleEndian.PutUint64(hdr[20:], j.hash)
			h = hdr[:shardHdrV3]
		} else {
			binary.LittleEndian.PutUint32(hdr[0:], uint32(j.rawLen))
			binary.LittleEndian.PutUint32(hdr[4:], uint32(len(j.enc)))
			h = hdr[:8]
		}
		if _, err := w.Write(h); err != nil {
			return err
		}
		_, err := w.Write(j.enc)
		j.enc = nil
		if j.rawBuf != nil {
			bgt.putShardBuf(j.rawBuf)
			j.rawBuf = nil
		}
		if j.encBuf != nil {
			bgt.putEncBuf(j.encBuf)
			j.encBuf = nil
		}
		if err == nil && releaser != nil && j.src == nil {
			// The frame is on the wire: the snapshot may drop this
			// region range's copy-on-write pages.
			releaser.ReleaseRange(j.addr, uint64(j.rawLen))
		}
		return err
	}

	workers := par.Workers(e.Workers)
	if workers == 1 || len(jobs) <= 1 {
		// Serial reference path: identical bytes, no goroutines. The
		// budget slot is still taken per shard so even serial engines
		// share the machine fairly with the rest of their pool.
		gz, err := newGz()
		if err != nil {
			return err
		}
		defer bgt.putGz(level, gz)
		for i := range jobs {
			if err := bgt.acquire(ctx); err != nil {
				return err
			}
			process(&jobs[i], gz)
			bgt.release()
			if err := consume(i, &jobs[i]); err != nil {
				return err
			}
		}
		return nil
	}

	// Workers acquire an in-flight token *before* pulling a job index,
	// which bounds memory to ~2 shards per worker and (because the index
	// channel is FIFO) guarantees the shard the writer is waiting on is
	// always among the next pulls — no deadlock.
	idxCh := make(chan int, len(jobs))
	for i := range jobs {
		idxCh <- i
	}
	close(idxCh)
	sem := make(chan struct{}, workers*2)
	var wg sync.WaitGroup
	var spawnErr error
	for g := 0; g < workers; g++ {
		gz, err := newGz()
		if err != nil {
			spawnErr = err
			break
		}
		wg.Add(1)
		go func(gz *gzip.Writer) {
			defer wg.Done()
			defer bgt.putGz(level, gz)
			for {
				sem <- struct{}{}
				i, ok := <-idxCh
				if !ok {
					<-sem
					return
				}
				// One budget slot per shard: a fleet of engines sharing
				// a bounded budget processes at most that many shards at
				// once, no matter how many checkpoints are in flight. A
				// cancelled wait keeps the pipeline protocol (every job
				// completes) and surfaces through consume.
				if err := bgt.acquire(ctx); err != nil {
					jobs[i].err = err
				} else {
					process(&jobs[i], gz)
					bgt.release()
				}
				close(jobs[i].done)
			}
		}(gz)
	}
	var firstErr error
	if spawnErr != nil {
		firstErr = spawnErr
	}
	for i := range jobs {
		if spawnErr != nil {
			break
		}
		<-jobs[i].done
		if firstErr == nil {
			firstErr = consume(i, &jobs[i])
		} else if jobs[i].rawBuf != nil {
			bgt.putShardBuf(jobs[i].rawBuf)
			jobs[i].rawBuf = nil
		}
		<-sem
	}
	wg.Wait()
	return firstErr
}

func writeString(w io.Writer, s string) error {
	if len(s) > 0xffff {
		return fmt.Errorf("dmtcp: string too long (%d)", len(s))
	}
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(s)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n [2]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return "", err
	}
	buf := make([]byte, binary.LittleEndian.Uint16(n[:]))
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// readStagePool recycles the staging chunk readExact streams large
// payloads through, so repeated image reads stop allocating (and
// copying through) a fresh bytes.Buffer per item.
var readStagePool = sync.Pool{New: func() any {
	b := make([]byte, 256<<10)
	return &b
}}

// trustedExact bounds the up-front allocation readExact risks on an
// unverified length claim: items at most this large get an exact buffer
// immediately; larger claims grow only as data actually arrives.
const trustedExact = 1 << 20

// readExact reads exactly n bytes. Small items land in an exactly-sized
// buffer with no slack; large items stream through a pooled staging
// chunk so a hostile length claim cannot force a giant allocation.
func readExact(r io.Reader, n uint64) ([]byte, error) {
	if n > maxItemBytes {
		return nil, fmt.Errorf("%w: oversized item (%d bytes)", ErrBadImage, n)
	}
	if n == 0 {
		return nil, nil
	}
	if n <= trustedExact {
		out := make([]byte, n)
		if _, err := io.ReadFull(r, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	bp := readStagePool.Get().(*[]byte)
	defer readStagePool.Put(bp)
	stage := *bp
	out := make([]byte, 0, trustedExact)
	for uint64(len(out)) < n {
		k := n - uint64(len(out))
		if k > uint64(len(stage)) {
			k = uint64(len(stage))
		}
		if _, err := io.ReadFull(r, stage[:k]); err != nil {
			return nil, err
		}
		out = append(out, stage[:k]...)
	}
	// The result may live as long as the parsed Image; don't pin
	// append's geometric-growth slack.
	if uint64(cap(out)) > n+n/4 {
		out = append(make([]byte, 0, n), out...)
	}
	return out, nil
}

// ReadImage parses a checkpoint image in either format, then checks
// the integrity trailer (when one is present — see trailer.go) against
// the body it just consumed; a mismatch reports ErrCorruptImage.
func ReadImage(r io.Reader) (*Image, error) {
	// The whole body — magic included — flows through the hashing
	// reader, so the trailer check at the end covers every byte the
	// parser consumed.
	hr := newHashingReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(hr, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrBadImage, err)
	}
	var img *Image
	var err error
	switch magic {
	case imageMagicV1:
		img, err = readImageV1(hr)
	case imageMagicV2:
		img, err = readImageV2(hr)
	case imageMagicV3:
		img, err = readImageV3(hr)
	default:
		// A CRACIMG prefix with an unknown version digit is an image from
		// a build we don't speak, not garbage.
		if bytes.Equal(magic[:7], imageMagicV1[:7]) {
			return nil, fmt.Errorf("%w: %q", ErrUnsupportedVersion, magic[:])
		}
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadImage, magic[:])
	}
	if err != nil {
		return nil, err
	}
	if img.Version == 1 && img.Gzip {
		// The buffered inflater may have consumed past the gzip member's
		// end, so a trailer cannot be located; the member's own CRC
		// already covered the body.
		return img, nil
	}
	img.Verified, err = verifyTrailer(hr)
	if err != nil {
		return nil, err
	}
	return img, nil
}

func readImageV1(r io.Reader) (*Image, error) {
	flags, err := readFlags(r, 1)
	if err != nil {
		return nil, err
	}
	img := &Image{Version: 1, Gzip: flags[0]&1 != 0, Sections: NewSectionMap()}
	body := r
	if img.Gzip {
		// The member's CRC covers only the inflated body, and v1+gzip
		// carries no trailer: accept nothing but the header the v1 writer
		// emits, so damage to its unchecked bytes cannot pass.
		var hdr [len(v1GzipHeader)]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil || hdr != v1GzipHeader {
			return nil, fmt.Errorf("%w: gzip header % x", ErrBadImage, hdr)
		}
		gz, err := gzip.NewReader(io.MultiReader(bytes.NewReader(hdr[:]), r))
		if err != nil {
			return nil, fmt.Errorf("%w: gzip: %v", ErrBadImage, err)
		}
		defer gz.Close()
		body = gz
	}
	var u32 [4]byte
	var u64 [8]byte
	if _, err := io.ReadFull(body, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: region count: %v", ErrBadImage, err)
	}
	nRegions := binary.LittleEndian.Uint32(u32[:])
	if nRegions > maxItemCount {
		return nil, fmt.Errorf("%w: region count %d", ErrBadImage, nRegions)
	}
	for i := uint32(0); i < nRegions; i++ {
		var rd RegionData
		if _, err := io.ReadFull(body, u64[:]); err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		rd.Start = binary.LittleEndian.Uint64(u64[:])
		if _, err := io.ReadFull(body, u64[:]); err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		rd.Len = binary.LittleEndian.Uint64(u64[:])
		var prot [1]byte
		if _, err := io.ReadFull(body, prot[:]); err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		rd.Prot = addrspace.Prot(prot[0])
		label, err := readString(body)
		if err != nil {
			return nil, fmt.Errorf("%w: region %d label: %v", ErrBadImage, i, err)
		}
		rd.Label = label
		rd.Data, err = readExact(body, rd.Len)
		if err != nil {
			return nil, fmt.Errorf("%w: region %d data: %v", ErrBadImage, i, err)
		}
		img.Regions = append(img.Regions, rd)
	}
	if _, err := io.ReadFull(body, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: section count: %v", ErrBadImage, err)
	}
	nSections := binary.LittleEndian.Uint32(u32[:])
	if nSections > maxItemCount {
		return nil, fmt.Errorf("%w: section count %d", ErrBadImage, nSections)
	}
	for i := uint32(0); i < nSections; i++ {
		name, err := readString(body)
		if err != nil {
			return nil, fmt.Errorf("%w: section %d name: %v", ErrBadImage, i, err)
		}
		if _, err := io.ReadFull(body, u64[:]); err != nil {
			return nil, fmt.Errorf("%w: section %d size: %v", ErrBadImage, i, err)
		}
		data, err := readExact(body, binary.LittleEndian.Uint64(u64[:]))
		if err != nil {
			return nil, fmt.Errorf("%w: section %d data: %v", ErrBadImage, i, err)
		}
		img.Sections.Add(name, data)
	}
	if img.Gzip {
		// No CRAC trailer covers a v1+gzip image, so drain the member to
		// its end: the inflater verifies the gzip CRC footer only when
		// read through, and any bytes past it are corruption.
		var tail [1]byte
		if n, err := io.ReadFull(body, tail[:]); n != 0 || err != io.EOF {
			if err == nil {
				err = errors.New("trailing data after gzip member")
			}
			return nil, fmt.Errorf("%w: gzip stream: %v", ErrCorruptImage, err)
		}
	}
	return img, nil
}

// destSpan is one destination range of the v2 concatenated payload. The
// backing slice is allocated lazily, when payload bytes actually reach
// the span: a hostile header claiming giant regions then costs nothing
// until the input provides real payload to fill them.
type destSpan struct {
	off  uint64 // offset of (*b)[0] in the raw payload stream
	size uint64
	b    *[]byte
}

// frame is one not-yet-decoded v2 payload shard.
type frame struct {
	rawOff uint64
	rawLen int
	enc    []byte
}

func readImageV2(r io.Reader) (*Image, error) {
	flags, err := readFlags(r, 1)
	if err != nil {
		return nil, err
	}
	img := &Image{Version: 2, Gzip: flags[0]&1 != 0, Sections: NewSectionMap()}

	var u32 [4]byte
	var u64 [8]byte
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
		if _, err := io.ReadFull(r, u64[:]); err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		rd.Start = binary.LittleEndian.Uint64(u64[:])
		if _, err := io.ReadFull(r, u64[:]); err != nil {
			return nil, fmt.Errorf("%w: region %d: %v", ErrBadImage, i, err)
		}
		rd.Len = binary.LittleEndian.Uint64(u64[:])
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
	secLens := make([]uint64, 0, nSections)
	secNames := make([]string, 0, nSections)
	for i := uint32(0); i < nSections; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, fmt.Errorf("%w: section %d name: %v", ErrBadImage, i, err)
		}
		if _, err := io.ReadFull(r, u64[:]); err != nil {
			return nil, fmt.Errorf("%w: section %d size: %v", ErrBadImage, i, err)
		}
		n := binary.LittleEndian.Uint64(u64[:])
		if n > maxItemBytes {
			return nil, fmt.Errorf("%w: section %d len %d", ErrBadImage, i, n)
		}
		secNames = append(secNames, name)
		secLens = append(secLens, n)
		totalRaw += n
	}
	if totalRaw > maxTotalBytes {
		return nil, fmt.Errorf("%w: payload too large (%d bytes)", ErrBadImage, totalRaw)
	}
	// Shard-size hint: informational only.
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: shard size: %v", ErrBadImage, err)
	}

	// Lay out every destination, then walk the frame stream. A frame may
	// in principle span destination boundaries (the writer never emits
	// one, but the format allows it), so placement goes through the span
	// list.
	secData := make([][]byte, len(secNames))
	spans := make([]destSpan, 0, len(img.Regions)+len(secNames))
	var off uint64
	for i := range img.Regions {
		spans = append(spans, destSpan{off: off, size: img.Regions[i].Len, b: &img.Regions[i].Data})
		off += img.Regions[i].Len
	}
	for i := range secNames {
		spans = append(spans, destSpan{off: off, size: secLens[i], b: &secData[i]})
		off += secLens[i]
	}

	var frames []frame
	var consumed uint64
	for consumed < totalRaw {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: frame header at %d: %v", ErrBadImage, consumed, err)
		}
		rawLen := binary.LittleEndian.Uint32(hdr[0:])
		encLen := binary.LittleEndian.Uint32(hdr[4:])
		if rawLen == 0 || uint64(rawLen) > maxFrameBytes || encLen == 0 || uint64(encLen) > maxFrameBytes {
			return nil, fmt.Errorf("%w: frame %d/%d bytes at %d", ErrBadImage, rawLen, encLen, consumed)
		}
		if consumed+uint64(rawLen) > totalRaw {
			return nil, fmt.Errorf("%w: frame overruns payload at %d", ErrBadImage, consumed)
		}
		if !img.Gzip {
			if encLen != rawLen {
				return nil, fmt.Errorf("%w: stored frame %d != %d at %d", ErrBadImage, encLen, rawLen, consumed)
			}
			// Stored frames read straight into their destinations.
			ensureSpans(spans, consumed, uint64(rawLen))
			if err := readIntoSpans(r, spans, consumed, int(rawLen)); err != nil {
				return nil, fmt.Errorf("%w: frame data at %d: %v", ErrBadImage, consumed, err)
			}
		} else {
			enc, err := readExact(r, uint64(encLen))
			if err != nil {
				return nil, fmt.Errorf("%w: frame data at %d: %v", ErrBadImage, consumed, err)
			}
			// Allocate destinations here, sequentially: the parallel
			// decode below only fills them.
			ensureSpans(spans, consumed, uint64(rawLen))
			frames = append(frames, frame{rawOff: consumed, rawLen: int(rawLen), enc: enc})
		}
		consumed += uint64(rawLen)
	}

	// Compressed frames are independent gzip members over disjoint raw
	// ranges: inflate them in parallel, each directly into its spans.
	if err := par.ForErr(len(frames), func(i int) error {
		f := frames[i]
		gz, err := gzip.NewReader(bytes.NewReader(f.enc))
		if err != nil {
			return fmt.Errorf("%w: frame at %d: gzip: %v", ErrBadImage, f.rawOff, err)
		}
		defer gz.Close()
		gz.Multistream(false)
		if err := readIntoSpans(gz, spans, f.rawOff, f.rawLen); err != nil {
			return fmt.Errorf("%w: frame at %d: %v", ErrBadImage, f.rawOff, err)
		}
		// The member must hold exactly rawLen bytes.
		var tail [1]byte
		if n, _ := gz.Read(tail[:]); n != 0 {
			return fmt.Errorf("%w: frame at %d: trailing bytes", ErrBadImage, f.rawOff)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Publish sections in table order; zero-length (or payload-free
	// zero-size) sections still appear.
	for i, name := range secNames {
		if secData[i] == nil {
			secData[i] = make([]byte, secLens[i])
		}
		img.Sections.Add(name, secData[i])
	}
	return img, nil
}

// ensureSpans allocates the backing slice of every span overlapping the
// raw range [off, off+n). Must be called sequentially (it mutates the
// destinations the parallel decode then fills).
func ensureSpans(spans []destSpan, off, n uint64) {
	for i := range spans {
		s := &spans[i]
		if s.off+s.size <= off {
			continue
		}
		if s.off >= off+n {
			break
		}
		if *s.b == nil && s.size > 0 {
			*s.b = make([]byte, s.size)
		}
	}
}

// readIntoSpans copies n raw-payload bytes starting at raw offset off
// from r into the destination spans (already allocated by ensureSpans).
func readIntoSpans(r io.Reader, spans []destSpan, off uint64, n int) error {
	for n > 0 {
		// Find the span containing off (spans are sorted by offset).
		lo, hi := 0, len(spans)
		for lo < hi {
			mid := (lo + hi) / 2
			if spans[mid].off+spans[mid].size <= off {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= len(spans) || spans[lo].off > off {
			return io.ErrUnexpectedEOF
		}
		s := spans[lo]
		o := off - s.off
		k := int(s.size - o)
		if k > n {
			k = n
		}
		if _, err := io.ReadFull(r, (*s.b)[o:int(o)+k]); err != nil {
			return err
		}
		off += uint64(k)
		n -= k
	}
	return nil
}
