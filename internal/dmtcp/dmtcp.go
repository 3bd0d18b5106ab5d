// Package dmtcp simulates the parts of DMTCP that CRAC delegates to: a
// checkpoint engine that serializes the *upper half only* of a split
// process to an image, a plugin interface with the
// freeze → emit/resume and restart hook lifecycle (the DMTCP plugin
// model of Arya et al. that CRAC builds on), the restorer that brings an
// image back (lazy.go), and a coordinator for multi-rank coordinated
// checkpoints (the MPI+CUDA proof of principle of Section 6).
//
// The image deliberately excludes every lower-half mapping: the active
// CUDA library and its arenas are *not* checkpointed; a fresh lower half
// is constructed at restart and brought up to date from the CRAC
// plugin's sections (paper Section 3.1), and the memory of the active
// allocations in it travels as fill-only spans (FillSpan), which the
// restorer fills but never maps.
//
// # Image format
//
// One image format exists ("CRACIMG3", delta.go): the span table (regions
// and fill-only spans) and the section headers first, then the payload split into fixed-size shards, each
// framed with its (span, offset) address, and the integrity trailer
// (trailer.go). Shards are stored raw. Shard boundaries depend only on
// the shard size, never on the worker count, so an image is
// byte-identical whether written serially or by N workers.
package dmtcp

import (
	"bytes"
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

// SectionMap collects what one checkpoint's plugins emit: named
// sections of literal bytes, and fill-only spans.
type SectionMap struct {
	order []string
	m     map[string][]byte
	fills []FillSpan
}

// A FillSpan is an address range of memory the image carries but the
// restart does not map: the restarted process recreates the memory at
// the same address itself (CRAC's active mallocs, rebuilt in the lower
// half's arenas), and the restorer only fills it. It is written,
// shard-tracked and resolved through a chain by address, exactly like
// an upper-half region.
type FillSpan struct {
	Addr, Len uint64
	// Class is the span's prefetch class; never ClassRegion.
	Class PrefetchClass
	// Touched, when set, reports that [addr, addr+n) changed since the
	// parent image's cut in a way the view's write stamps do not record
	// (a managed page the device holds or touched): a delta emits every
	// shard it reports.
	Touched func(addr, n uint64) bool
}

// NewSectionMap returns an empty section map.
func NewSectionMap() *SectionMap {
	return &SectionMap{m: make(map[string][]byte)}
}

// Add stores a section of literal bytes, replacing any previous content
// under name.
func (s *SectionMap) Add(name string, data []byte) {
	if _, ok := s.m[name]; !ok {
		s.order = append(s.order, name)
	}
	s.m[name] = data
}

// Fill adds a fill-only span to the image.
func (s *SectionMap) Fill(sp FillSpan) { s.fills = append(s.fills, sp) }

// Bytes returns a section's bytes.
func (s *SectionMap) Bytes(name string) ([]byte, error) {
	b, ok := s.m[name]
	if !ok {
		return nil, fmt.Errorf("dmtcp: no section %q", name)
	}
	return b, nil
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
	// every non-memory input of the checkpoint (call-log view, active
	// sets, epoch cuts) — quickly. The returned EmitFunc produces the
	// plugin's sections and fill-only spans later, from the capture plus
	// the memory view it is handed. since is the parent checkpoint's
	// epoch cut (0 for a base — everything is dirty), and prevCut the cut
	// this plugin's Freeze returned for the parent (0 for a base); chain
	// reports a chain image (false: a standalone image). The returned cut
	// travels in the new image's DeltaState to the next delta's Freeze,
	// so it advances only once the image is durable. The engine never
	// proceeds to the image body after a hook error.
	Freeze(since, prevCut uint64, chain bool) (emit EmitFunc, cut uint64, err error)
	// Resume runs after a successful checkpoint, when the original
	// process continues.
	Resume() error
	// LazyRestart runs in the restarted process after the upper-half
	// regions are mapped and every span's fill plan is registered
	// (MapRegions): the plugin reads the small sections it needs eagerly
	// through the restorer, and the restorer materializes memory on
	// first access or in its background drain.
	LazyRestart(ctx context.Context, r *LazyRestorer) error
}

// RegionData is one entry of an image's span table: an upper-half
// region (Class ClassRegion), which the restart maps, or a fill-only
// span (any other class), which it only fills. Its bytes are the span's
// shards.
type RegionData struct {
	Start uint64
	Len   uint64
	Prot  addrspace.Prot
	Label string
	Class PrefetchClass
}

// FillOnly reports whether the entry is a fill-only span.
func (rd RegionData) FillOnly() bool { return rd.Class != ClassRegion }

// Stats describes one checkpoint operation.
type Stats struct {
	// Regions and RegionBytes count the upper-half regions, SectionBytes
	// the plugin sections; PayloadTotal (below) counts every span.
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
	// scan, verification, and the lower-half rebuild — everything
	// before the first kernel can launch. RestoreBackgroundDuration is
	// the prefetcher drain; RestoreDuration the total until the image
	// was fully materialized.
	RestoreDuration           time.Duration
	RestoreVisibleDuration    time.Duration
	RestoreBackgroundDuration time.Duration

	// Shard accounting. ShardsTotal and PayloadTotal cover
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

// DefaultShardSize is the payload shard granularity of the pipeline:
// large enough that per-shard framing and goroutine handoff are noise,
// small enough that a handful of regions still fans out across CPUs.
const DefaultShardSize = 1 << 20

// Engine writes and restores checkpoint images for one process.
type Engine struct {
	// Workers bounds the checkpoint pipeline fan-out: <=0 uses all
	// CPUs, 1 runs the serial reference path (same image bytes).
	Workers int
	// ShardSize overrides DefaultShardSize. A chain keeps the grid its
	// base was written with: a change rotates to a fresh base.
	ShardSize int

	// ShardHook, when set, runs in commit order just before each payload
	// shard is written to the image stream; returning an error aborts the
	// checkpoint with that error. Fault-injection tests use it to fail
	// the writer mid-image at a chosen shard.
	ShardHook func(shard int) error

	// Budget, when set, attaches this engine to a shared resourcing
	// domain: pipeline workers acquire a slot from it for each shard
	// they process, and staging buffers recycle through its
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

var imageMagic = [8]byte{'C', 'R', 'A', 'C', 'I', 'M', 'G', '3'}

// ErrBadImage reports a malformed checkpoint image.
var ErrBadImage = errors.New("dmtcp: bad checkpoint image")

// ErrUnsupportedVersion reports a checkpoint image whose format version
// this build does not speak: the CRACIMG magic prefix matched, but the
// version digit is not the one this build reads and writes. Distinct
// from
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

// shardJob is one unit of the write pipeline: a payload shard — a
// slice of a literal section, or the address range of a span shard —
// hashed when a chain needs it, and written in index order behind its
// shard header.
type shardJob struct {
	data   []byte // a section shard's bytes; nil: read addr through the view
	addr   uint64
	rawLen int

	spanIdx  uint32 // destination span (the span table, then sections)
	spanOff  uint64 // offset within the span
	hash     uint64 // shardSum of the raw bytes; 0 in a standalone image
	needHash bool   // workers compute hash (else it is precomputed or unwanted)

	enc    []byte  // framed payload, valid once done is closed
	rawBuf *[]byte // pooled staging buffer to recycle after consumption
	err    error
	done   chan struct{}
}

// shardSource is what the write pipeline reads span shards from by
// address: an address-space view for a checkpoint, a linked chain of
// stored images for EncodeBase.
type shardSource interface {
	ReadAt(addr uint64, p []byte) error
}

// stage returns a shard's bytes: a section shard's own bytes, or a
// pooled buffer filled from view, which the caller recycles.
func (b *WorkerBudget) stage(j *shardJob, shard int, view shardSource) ([]byte, *[]byte, error) {
	if j.data != nil {
		return j.data, nil, nil
	}
	bp := b.getShardBuf(shard)
	raw := (*bp)[:j.rawLen]
	if err := view.ReadAt(j.addr, raw); err != nil {
		return raw, bp, fmt.Errorf("dmtcp: reading %#x+%d: %w", j.addr, j.rawLen, err)
	}
	return raw, bp, nil
}

func (e *Engine) runWritePipeline(ctx context.Context, w io.Writer, view shardSource, jobs []shardJob) error {
	shard := e.shardSize()
	// Per-shard staging buffers recycle through the engine's
	// WorkerBudget across checkpoints (not just within one image
	// write), so a steady checkpoint cadence stops allocating its data
	// path; the budget's worker slots bound how many shards are in
	// flight across every engine sharing it.
	bgt := e.budget()
	// Reading through a copy-on-write snapshot: drop each shard's
	// retained pages as soon as its frame is written, bounding the
	// snapshot's peak memory to roughly the in-flight shard window.
	releaser, _ := view.(addrspace.RangeReleaser)

	process := func(j *shardJob) {
		// A cancelled context turns every remaining shard into a no-op:
		// the pipeline protocol (every job completes, in order) is kept,
		// but no further memory is read or hashed, so a deadline
		// aborts the image write promptly mid-stream.
		if err := ctx.Err(); err != nil {
			j.err = err
			return
		}
		raw, buf, err := bgt.stage(j, shard, view)
		j.rawBuf = buf
		if err != nil {
			j.err = err
			return
		}
		if j.needHash {
			j.hash = shardSum(raw)
		}
		j.enc = raw
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
				return err
			}
		}
		binary.LittleEndian.PutUint32(hdr[0:], j.spanIdx)
		binary.LittleEndian.PutUint64(hdr[4:], j.spanOff)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(j.rawLen))
		binary.LittleEndian.PutUint32(hdr[16:], uint32(len(j.enc)))
		binary.LittleEndian.PutUint64(hdr[20:], j.hash)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := w.Write(j.enc)
		j.enc = nil
		if j.rawBuf != nil {
			bgt.putShardBuf(j.rawBuf)
			j.rawBuf = nil
		}
		if err == nil && releaser != nil && j.data == nil {
			// The frame is on the wire: the snapshot may drop the
			// copy-on-write pages wholly inside this shard's range. A
			// page split across two shards stays until Frozen.Release.
			releaser.ReleaseRange(j.addr, uint64(j.rawLen))
		}
		return err
	}

	workers := par.Workers(e.Workers)
	if workers == 1 || len(jobs) <= 1 {
		// Serial reference path: identical bytes, no goroutines. The
		// budget slot is still taken per shard so even serial engines
		// share the machine fairly with the rest of their pool.
		for i := range jobs {
			if err := bgt.acquire(ctx); err != nil {
				return err
			}
			process(&jobs[i])
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
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
					process(&jobs[i])
					bgt.release()
				}
				close(jobs[i].done)
			}
		}()
	}
	var firstErr error
	for i := range jobs {
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

func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > 0xffff {
		return b, fmt.Errorf("dmtcp: string too long (%d)", len(s))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
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

// readStagePool recycles the staging chunk the trailer pass streams an
// image body through when the image is not held in memory.
var readStagePool = sync.Pool{New: func() any {
	b := make([]byte, 256<<10)
	return &b
}}

// ReadImage reads a whole checkpoint image from r, indexes it in place
// and verifies it (ShardIndex.Verify): the integrity trailer, then every
// shard. A missing or mismatched trailer or shard reports
// ErrCorruptImage; a malformed image ErrBadImage.
func ReadImage(r io.Reader) (*ShardIndex, error) {
	// A reader that knows its length (a bytes.Reader) fills one buffer
	// of that size instead of a doubling series.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	ix, err := openShardIndex(bytes.NewReader(b), int64(len(b)), b)
	if err != nil {
		return nil, err
	}
	if err := ix.Verify(); err != nil {
		return nil, err
	}
	return ix, nil
}
