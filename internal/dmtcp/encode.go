package dmtcp

import (
	"bufio"
	"context"
	"io"
)

// EncodeBase writes the chain that ends at tip (its parents linked with
// SetParent) as one chain base under the caller-chosen identity id: the
// write half of compaction. The base keeps the tip's layout — its
// region table, and its section table in order — and is streamed shard
// by shard through the checkpoint's worker pipeline: region bytes
// resolve by absolute address through the chain, a section by name and
// offset, and an opaque section, which only its owning plugin can fold
// across a chain, takes its content from opaque when named there (else
// the tip's own bytes). Keeping the tip's identity means deltas already
// recorded against the tip (parentID == id) still verify against the
// compacted base, so the running session never pauses.
//
// Output is byte-deterministic for any worker count. The engine's
// ShardSize chooses the grid; callers compacting a chain mirror the
// chain's shard size so later deltas keep addressing the same grid.
func (e *Engine) EncodeBase(ctx context.Context, w io.Writer, tip *ShardIndex, id uint64, opaque map[string][]byte) error {
	if ctx == nil {
		ctx = context.Background()
	}
	shard := e.shardSize()
	h := &header{ImageMeta: ImageMeta{ID: id}, regions: tip.Regions, shardSize: shard}
	// Shard plan: every shard of every span, in layout order. Region
	// shards are read through the chain by address; section shards are
	// sliced from the resolved section bytes.
	var jobs []shardJob
	plan := func(span int, size uint64, data []byte) {
		for off := uint64(0); off < size; off += uint64(shard) {
			j := shardJob{rawLen: int(min(size-off, uint64(shard))), spanIdx: uint32(span), spanOff: off,
				needHash: true, done: make(chan struct{})}
			if data != nil {
				j.src = data[off : off+uint64(j.rawLen)]
			} else {
				j.addr = tip.Regions[span].Start + off
			}
			jobs = append(jobs, j)
		}
	}
	for i, rd := range tip.Regions {
		plan(i, rd.Len, nil)
	}
	for _, sec := range tip.Secs {
		data := opaque[sec.Name]
		if data == nil || !sec.Opaque {
			var err error
			if data, err = tip.SectionBytes(sec.Name); err != nil {
				return err
			}
		}
		h.secs = append(h.secs, SectionHdr{Name: sec.Name, Size: uint64(len(data)), Opaque: sec.Opaque})
		plan(len(h.regions)+len(h.secs)-1, uint64(len(data)), data)
	}
	h.shards = len(jobs)

	tw := newTrailerWriter(w)
	bw := bufio.NewWriterSize(tw, 256<<10)
	if err := writeHeader(bw, h); err != nil {
		return err
	}
	if err := e.runWritePipeline(ctx, bw, chainRegions{tip}, jobs); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return tw.Finish()
}

// chainRegions reads region bytes by absolute address through a linked
// index chain, for the write pipeline's concurrent workers.
type chainRegions struct{ tip *ShardIndex }

func (c chainRegions) ReadAt(addr uint64, p []byte) error {
	return c.tip.readRegionRange(addr, p, new(shardCache))
}
