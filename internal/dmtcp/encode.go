package dmtcp

import (
	"bufio"
	"context"
	"io"
)

// EncodeBase writes the chain that ends at tip (its parents linked with
// SetParent) as one chain base under the caller-chosen identity id: the
// write half of compaction. The base keeps the tip's layout — its span
// table, and its section table in order — and is streamed shard by
// shard through the checkpoint's worker pipeline: span bytes (upper-half
// regions and fill-only spans alike) resolve by absolute address through
// the chain, a section by name and offset. Keeping the tip's identity
// means deltas already recorded against the tip (parentID == id) still
// verify against the compacted base, so the running session never
// pauses.
//
// Output is byte-deterministic for any worker count. The engine's
// ShardSize chooses the grid; callers compacting a chain mirror the
// chain's shard size so later deltas keep addressing the same grid.
func (e *Engine) EncodeBase(ctx context.Context, w io.Writer, tip *ShardIndex, id uint64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	shard := e.shardSize()
	h := &header{ImageMeta: ImageMeta{ID: id}, regions: tip.Regions, secs: tip.Secs, shardSize: shard}
	// Shard plan: every shard of every span, in layout order. Span shards
	// are read through the chain by address; section shards are slices of
	// the resolved section bytes.
	var jobs []shardJob
	plan := func(span int, size uint64, start uint64, data []byte) {
		for off := uint64(0); off < size; off += uint64(shard) {
			n := min(size-off, uint64(shard))
			j := shardJob{addr: start + off, rawLen: int(n), spanIdx: uint32(span), spanOff: off,
				needHash: true, done: make(chan struct{})}
			if data != nil {
				j.data = data[off : off+n]
			}
			jobs = append(jobs, j)
		}
	}
	for i, rd := range tip.Regions {
		plan(i, rd.Len, rd.Start, nil)
	}
	for i, sec := range tip.Secs {
		data, err := tip.SectionBytes(sec.Name)
		if err != nil {
			return err
		}
		plan(len(tip.Regions)+i, sec.Size, 0, data)
	}
	h.shards = len(jobs)

	tw := newTrailerWriter(w)
	bw := bufio.NewWriterSize(tw, 256<<10)
	if err := writeHeader(bw, h); err != nil {
		return err
	}
	if err := e.runWritePipeline(ctx, bw, tip, jobs); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return tw.Finish()
}
