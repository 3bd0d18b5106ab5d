package dmtcp

import (
	"bufio"
	"context"
	"fmt"
	"io"
)

// ShardSize returns the shard grid the image was written with (0 when
// unknown, e.g. an image assembled in memory).
func (d *DeltaInfo) ShardSize() int { return d.shardSize }

// EncodeBase serializes a fully materialized image as a chain base
// image under the caller-chosen identity id. It is the write half
// of chain compaction: ResolveChain materializes `base + k deltas`
// from stored bytes alone, and EncodeBase re-emits the result as a new
// base that keeps the old tip's identity — so deltas already recorded
// against the tip (parentID == id) still verify and apply against the
// compacted base, and the running session never pauses.
//
// The image must be complete (a base, or a delta after
// ApplyDelta/ResolveChain); shards flow through the same worker
// pipeline as live checkpoints, so output is byte-deterministic for
// any worker count. The engine's Gzip/ShardSize settings choose the
// output encoding; callers compacting an existing chain should mirror
// the chain's shard size so later deltas keep addressing the same
// grid.
func (e *Engine) EncodeBase(ctx context.Context, w io.Writer, img *Image, id uint64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if img == nil {
		return fmt.Errorf("%w: EncodeBase on a nil image", ErrBadImage)
	}
	if img.Delta != nil && !img.Delta.Materialized {
		return fmt.Errorf("%w: EncodeBase needs a materialized image", ErrDeltaChain)
	}
	if err := img.VerifyContent(); err != nil {
		return err
	}
	tw := newTrailerWriter(w)
	bw := bufio.NewWriterSize(tw, 256<<10)
	if err := e.encodeBaseBody(ctx, bw, img, id); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return tw.Finish()
}

// encodeBaseBody writes the header tables and every shard of the
// materialized image, in writeImage's base layout exactly.
func (e *Engine) encodeBaseBody(ctx context.Context, w io.Writer, img *Image, id uint64) error {
	shard := e.shardSize()
	sections := img.Sections
	if sections == nil {
		sections = NewSectionMap()
	}
	h := &header{ImageMeta: ImageMeta{Gzip: e.Gzip, ID: id}, shardSize: shard}
	// Shard plan: every shard of every span, in layout order, all
	// sourced from the materialized payload (no address-space view).
	var jobs []shardJob
	plan := func(span int, data []byte) {
		for off := 0; off < len(data); off += shard {
			n := min(len(data)-off, shard)
			jobs = append(jobs, shardJob{src: data[off : off+n], rawLen: n,
				spanIdx: uint32(span), spanOff: uint64(off), needHash: true, done: make(chan struct{})})
		}
	}
	for i, rd := range img.Regions {
		h.regions = append(h.regions, RegionData{Start: rd.Start, Len: rd.Len, Prot: rd.Prot, Label: rd.Label})
		plan(i, rd.Data)
	}
	for _, name := range sections.Names() {
		data, _ := sections.Get(name)
		h.secs = append(h.secs, SectionHdr{Name: name, Size: uint64(len(data)), Opaque: sections.Opaque(name)})
		plan(len(h.regions)+len(h.secs)-1, data)
	}
	h.shards = len(jobs)
	if err := writeHeader(w, h); err != nil {
		return err
	}
	// Every job carries src, so the nil view is never dereferenced.
	return e.runWritePipeline(ctx, w, nil, jobs)
}
