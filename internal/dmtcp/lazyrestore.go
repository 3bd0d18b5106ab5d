// The LazyRestorer: fill plans, single-flight shard decode, and the
// background prefetcher of the restart path (see lazy.go).
package dmtcp

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addrspace"
	"repro/internal/par"
)

// PrefetchClass is a span table entry's class, and orders the
// background drain: device memory first (a restarted application's
// kernels touch it immediately), then pinned, then the upper-half
// regions, and managed (UVM) memory last — its CPU-resident pages are
// the coldest state and stay cold the longest, materializing on first
// touch if the application gets there before the prefetcher. Every
// class but ClassRegion marks a fill-only span.
type PrefetchClass uint8

// Prefetch classes; drainOrder lists them in drain order.
const (
	ClassRegion PrefetchClass = iota
	ClassDevice
	ClassPinned
	ClassManaged
)

var drainOrder = []PrefetchClass{ClassDevice, ClassPinned, ClassRegion, ClassManaged}

// fillPlan binds one target address range to the chain's bytes at that
// address.
type fillPlan struct {
	addr, length uint64
	class        PrefetchClass
}

// shardRef identifies one shard within one chain image.
type shardRef struct{ img, idx int }

// shardCall is one single-flight shard decode.
type shardCall struct {
	done chan struct{}
	err  error
}

// LazyRestorer materializes a checkpoint image into an address space
// on demand. Build it with NewLazyRestorer, register the fill plans
// (MapRegions), Seal it, install MaterializeRange as the space's
// Materializer, and start Prefetch on a background goroutine. Safe for
// concurrent use after Seal.
type LazyRestorer struct {
	space *addrspace.Space
	chain []*ShardIndex // [0] = tip; chain[i].parent == chain[i+1]

	// Workers is the restoring engine's worker setting (<=0: all CPUs);
	// the Prefetch drain runs on half of it, at least one (drainWorkers).
	// Budget, when set, is the domain its workers draw a slot from per
	// chunk — for a background drain the engine's own, so a pooled
	// session's drain shares the machine with the pool's checkpoint
	// pipelines.
	Workers int
	Budget  *WorkerBudget

	plans  []fillPlan // sorted by addr once sealed
	sealed bool

	mu    sync.Mutex
	calls map[shardRef]*shardCall

	decoded atomic.Int64 // shards actually decoded (single-flight observability)

	// fg counts foreground materializations in flight (faults and
	// DrainLazy barriers). The prefetcher defers to them: on a machine
	// where the drain competes with the application for cores, a
	// restarted request must never queue behind background prefetching.
	fg atomic.Int64
}

// NewLazyRestorer builds a restorer over the linked index chain
// (tip first; parents must already be linked with SetParent).
func NewLazyRestorer(space *addrspace.Space, chain []*ShardIndex) (*LazyRestorer, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("%w: empty index chain", ErrBadImage)
	}
	for i, ix := range chain[:len(chain)-1] {
		if ix.parent != chain[i+1] {
			return nil, fmt.Errorf("%w: index chain not linked at depth %d", ErrDeltaChain, i)
		}
	}
	last := chain[len(chain)-1]
	if last.Delta {
		return nil, fmt.Errorf("%w: chain ends in a delta (%q unresolved)", ErrDeltaChain, last.Parent)
	}
	return &LazyRestorer{
		space: space,
		chain: chain,
		calls: make(map[shardRef]*shardCall),
	}, nil
}

// Tip returns the chain tip's index (the image being restored).
func (r *LazyRestorer) Tip() *ShardIndex { return r.chain[0] }

// SectionBytes materializes a tip section completely (chain-resolved).
func (r *LazyRestorer) SectionBytes(name string) ([]byte, error) {
	return r.chain[0].SectionBytes(name)
}

// MapRegions maps every tip region into the space — upper half, at its
// original address and final protection (fills arrive through the
// privileged FillCold push, so no write-then-protect dance is needed) —
// and registers a fill plan for every entry of the tip's span table,
// with the entry's class: the whole image restores on demand. A
// fill-only span is not mapped: the restarted process recreates its
// memory at the same address before the plans are sealed. A region
// colliding with an existing mapping fails (MAP_FIXED_NOREPLACE
// semantics).
func (r *LazyRestorer) MapRegions() error {
	for _, rd := range r.chain[0].Regions {
		if !rd.FillOnly() {
			if _, err := r.space.MMap(rd.Start, rd.Len, rd.Prot, addrspace.MapFixedNoReplace,
				addrspace.HalfUpper, rd.Label); err != nil {
				return fmt.Errorf("dmtcp: restoring region %#x+%d (%s): %w", rd.Start, rd.Len, rd.Label, err)
			}
		}
		r.addPlan(fillPlan{addr: rd.Start, length: rd.Len, class: rd.Class})
	}
	return nil
}

func (r *LazyRestorer) addPlan(p fillPlan) {
	if r.sealed {
		panic("dmtcp: LazyRestorer plan added after Seal")
	}
	if p.length == 0 {
		return
	}
	r.plans = append(r.plans, p)
}

// Seal freezes the plan set (sorting it for lookup) and marks every
// planned range cold in the space. Call after all plans are
// registered, before installing the materializer and resuming the
// application.
func (r *LazyRestorer) Seal() {
	sort.Slice(r.plans, func(i, j int) bool { return r.plans[i].addr < r.plans[j].addr })
	r.sealed = true
	for _, p := range r.plans {
		r.space.MarkCold(p.addr, p.length)
	}
}

// plansOverlapping iterates the plans overlapping [addr, addr+length).
func (r *LazyRestorer) plansOverlapping(addr, length uint64, fn func(p *fillPlan, lo, hi uint64) error) error {
	end := addr + length
	i := sort.Search(len(r.plans), func(i int) bool {
		return r.plans[i].addr+r.plans[i].length > addr
	})
	for ; i < len(r.plans); i++ {
		p := &r.plans[i]
		if p.addr >= end {
			break
		}
		lo, hi := p.addr, p.addr+p.length
		if lo < addr {
			lo = addr
		}
		if hi > end {
			hi = end
		}
		if lo < hi {
			if err := fn(p, lo, hi); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolveRegion collects, for the absolute range [addr, addr+length),
// the shards of the nearest chain image owning each sub-range —
// starting at chain image img. Clean ranges of a delta descend to the
// parent; a base owns everything its regions cover.
func (r *LazyRestorer) resolveRegion(img int, addr, length uint64, refs map[shardRef]struct{}) error {
	ix := r.chain[img]
	end := addr + length
	at := addr
	for _, spanIdx := range ix.spansOverlapping(addr, end) {
		rd := ix.Regions[spanIdx]
		lo, hi := rd.Start, rd.Start+rd.Len
		if lo < at {
			lo = at
		}
		if hi > end {
			hi = end
		}
		if lo >= hi {
			continue
		}
		if lo > at {
			// [at, lo) lies outside this image's regions.
			if err := r.regionGap(img, at, lo-at, refs); err != nil {
				return err
			}
		}
		idxs, gaps := ix.shardsCovering(spanIdx, lo-rd.Start, hi-lo)
		for _, k := range idxs {
			refs[shardRef{img: img, idx: k}] = struct{}{}
		}
		for _, g := range gaps {
			if img+1 >= len(r.chain) {
				return fmt.Errorf("%w: region bytes %#x+%#x missing from base image", ErrDeltaChain, rd.Start+g.Off, g.Len)
			}
			if err := r.resolveRegion(img+1, rd.Start+g.Off, g.Len, refs); err != nil {
				return err
			}
		}
		at = hi
	}
	if at < end {
		if err := r.regionGap(img, at, end-at, refs); err != nil {
			return err
		}
	}
	return nil
}

// regionGap handles a range outside image img's region table. At the
// tip that means the range was never planned (plans come from tip
// regions) and there is nothing to fill; deeper in the chain it is a
// lineage hole — a clean tip range whose ancestor does not map it,
// which conservative dirty tracking (new mappings dirty from birth)
// makes impossible for well-formed chains.
func (r *LazyRestorer) regionGap(img int, addr, length uint64, refs map[shardRef]struct{}) error {
	if img == 0 {
		return nil
	}
	return fmt.Errorf("%w: region bytes %#x+%#x not mapped by ancestor image", ErrDeltaChain, addr, length)
}

// spansOverlapping returns the indices of ix's spans overlapping
// [addr, end), in address order.
func (ix *ShardIndex) spansOverlapping(addr, end uint64) []int {
	var out []int
	for i := ix.firstSpanEndingAfter(addr); i < len(ix.Regions) && ix.Regions[i].Start < end; i++ {
		out = append(out, i)
	}
	return out
}

// MaterializeRange is the addrspace Materializer: it materializes (at
// least) the cold content of [addr, addr+length) and marks the range
// warm. addr/length are page-aligned (the fault gate's contract).
// Calls through this entry are foreground: the prefetcher yields to
// them.
func (r *LazyRestorer) MaterializeRange(addr, length uint64) error {
	r.fg.Add(1)
	defer r.fg.Add(-1)
	return r.materialize(addr, length)
}

func (r *LazyRestorer) materialize(addr, length uint64) error {
	refs := make(map[shardRef]struct{})
	err := r.plansOverlapping(addr, length, func(_ *fillPlan, lo, hi uint64) error {
		return r.resolveRegion(0, lo, hi-lo, refs)
	})
	if err != nil {
		return err
	}
	// Deterministic decode order (ascending file position within each
	// image) keeps a prefetcher chunk streaming forward.
	ordered := make([]shardRef, 0, len(refs))
	for ref := range refs {
		ordered = append(ordered, ref)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].img != ordered[j].img {
			return ordered[i].img < ordered[j].img
		}
		return ordered[i].idx < ordered[j].idx
	})
	for _, ref := range ordered {
		if err := r.ensureShard(ref); err != nil {
			return err
		}
	}
	r.space.MarkWarm(addr, length)
	return nil
}

// ensureShard decodes and scatters one shard exactly once; concurrent
// callers (faults, the prefetcher) wait on the same in-flight call.
// Successful decodes stay cached (their pages are filled; nothing may
// decode-and-scatter them again), but a failed one is forgotten so the
// next access retries — a transient store error must not permanently
// poison the range, per the contract that cold memory keeps
// materializing on demand after a failed or cancelled drain.
func (r *LazyRestorer) ensureShard(ref shardRef) error {
	r.mu.Lock()
	c, ok := r.calls[ref]
	if ok {
		r.mu.Unlock()
		<-c.done
		return c.err
	}
	c = &shardCall{done: make(chan struct{})}
	r.calls[ref] = c
	r.mu.Unlock()
	c.err = r.decodeAndScatter(ref)
	if c.err != nil {
		r.mu.Lock()
		delete(r.calls, ref)
		r.mu.Unlock()
	}
	close(c.done)
	return c.err
}

// decodeAndScatter decodes shard ref and pushes its bytes to every
// target range that resolves to it.
func (r *LazyRestorer) decodeAndScatter(ref shardRef) error {
	ix := r.chain[ref.img]
	sh := &ix.shards[ref.idx]
	buf, err := ix.shardView(ref.idx)
	if err != nil {
		return err
	}
	if buf == nil {
		bp := defaultBudget.getShardBuf(int(sh.rawLen))
		defer defaultBudget.putShardBuf(bp)
		buf = (*bp)[:sh.rawLen]
		if err := ix.readShard(ref.idx, buf); err != nil {
			return err
		}
	}
	r.decoded.Add(1)

	// Only span shards are planned. The shard's absolute range, minus
	// every sub-range a younger chain image overrides (their shards carry
	// the newer bytes and are decoded by their own resolution), scatters
	// by address. FillCold writes only still-cold pages, so ranges the
	// application already faulted (or that were unmapped since) are
	// untouched.
	base := ix.Regions[sh.span].Start + sh.off
	selected := []addrspace.Span{{Off: base, Len: uint64(sh.rawLen)}}
	for younger := ref.img - 1; younger >= 0; younger-- {
		selected = subtractRegionShards(r.chain[younger], selected)
		if len(selected) == 0 {
			break
		}
	}
	for _, sel := range selected {
		r.space.FillCold(sel.Off, buf[sel.Off-base:sel.Off-base+sel.Len])
	}
	return nil
}

// subtractRegionShards removes from spans (absolute address ranges)
// every range covered by a shard of ix's regions.
func subtractRegionShards(ix *ShardIndex, spans []addrspace.Span) []addrspace.Span {
	var out []addrspace.Span
	for _, sp := range spans {
		parts := []addrspace.Span{sp}
		for _, spanIdx := range ix.spansOverlapping(sp.Off, sp.Off+sp.Len) {
			rd := ix.Regions[spanIdx]
			var next []addrspace.Span
			for _, part := range parts {
				lo, hi := part.Off, part.Off+part.Len
				clo, chi := rd.Start, rd.Start+rd.Len
				if clo < lo {
					clo = lo
				}
				if chi > hi {
					chi = hi
				}
				if clo >= chi {
					next = append(next, part)
					continue
				}
				idxs, _ := ix.shardsCovering(spanIdx, clo-rd.Start, chi-clo)
				covered := make([]addrspace.Span, 0, len(idxs))
				for _, k := range idxs {
					sh := &ix.shards[k]
					covered = append(covered, addrspace.Span{Off: rd.Start + sh.off, Len: uint64(sh.rawLen)})
				}
				next = append(next, subtractSpans(part, covered)...)
			}
			parts = next
			if len(parts) == 0 {
				break
			}
		}
		out = append(out, parts...)
	}
	return out
}

// subtractSpans removes the (ascending, possibly overlapping-with-part
// boundaries) cover ranges from part.
func subtractSpans(part addrspace.Span, cover []addrspace.Span) []addrspace.Span {
	var out []addrspace.Span
	at := part.Off
	end := part.Off + part.Len
	for _, c := range cover {
		clo, chi := c.Off, c.Off+c.Len
		if chi <= at || clo >= end {
			continue
		}
		if clo > at {
			out = append(out, addrspace.Span{Off: at, Len: clo - at})
		}
		if chi > at {
			at = chi
		}
		if at >= end {
			return out
		}
	}
	if at < end {
		out = append(out, addrspace.Span{Off: at, Len: end - at})
	}
	return out
}

// PrefetchChunk is the page-aligned granularity of the background
// drain: roughly one shard, so a drain worker reaches a yield point —
// where it defers to foreground faults and lets the scheduler run the
// application — at sub-millisecond intervals even on a single core. It
// is also the largest image a waited restart reads in one request
// instead of header by header (OpenShardIndexWhole), and so how much of
// an image an HTTP store fetches while opening it.
const PrefetchChunk = 1 << 20

// Prefetch drains every plan, class by class in PrefetchClass order,
// until the whole image is materialized or ctx is cancelled: the
// chunks are handed out in that order to drainWorkers goroutines, each
// holding one Budget slot per chunk. Faults racing the drain
// deduplicate on the single-flight shard calls, and foreground
// materializations (faults, DrainLazy barriers) take strict priority:
// every worker pauses while any is in flight, so a restarted request
// never queues behind background prefetching. The first error ends the
// drain. A failed or cancelled prefetch leaves the remaining cold pages
// materializable on demand — the session stays fully usable.
func (r *LazyRestorer) Prefetch(ctx context.Context) error {
	var chunks []addrspace.Span
	for _, class := range drainOrder {
		for i := range r.plans {
			p := &r.plans[i]
			if p.class != class {
				continue
			}
			start := p.addr &^ (addrspace.PageSize - 1)
			end := (p.addr + p.length + addrspace.PageSize - 1) &^ (addrspace.PageSize - 1)
			for at := start; at < end; at += PrefetchChunk {
				chunks = append(chunks, addrspace.Span{Off: at, Len: min(PrefetchChunk, end-at)})
			}
		}
	}
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		once  sync.Once
		first error
	)
	cancelled := par.ForErrCtx(ctx, r.drainWorkers(), len(chunks), func(i int) error {
		if err := r.prefetchOne(ctx, chunks[i]); err != nil {
			once.Do(func() { first = err; stop() })
		}
		return nil
	})
	if first != nil {
		return first
	}
	return cancelled
}

// drainWorkers is the width of the background drain: half the engine's
// workers, at least one. The drain runs beside the application the
// restart just resumed, and its chunks are pure CPU (hash, copy); at
// full width on a saturated machine it and the application's own
// threads take turns on every core, and both the application's first
// requests and the drain's finishing time move with the scheduler.
func (r *LazyRestorer) drainWorkers() int {
	return max(1, par.Workers(r.Workers)/2)
}

// prefetchOne materializes one drain chunk once no foreground
// materialization is in flight.
func (r *LazyRestorer) prefetchOne(ctx context.Context, c addrspace.Span) error {
	for r.fg.Load() != 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
	if err := r.Budget.acquire(ctx); err != nil {
		return err
	}
	err := r.materialize(c.Off, c.Len)
	r.Budget.release()
	// A scheduling point per chunk: on saturated cores the application
	// (and its faults) get the processor between every decoded shard.
	runtime.Gosched()
	return err
}

// Span overlap note: plans never overlap each other (the span table is
// ascending and disjoint), so a byte belongs to at most one plan and
// MaterializeRange's per-plan fills are disjoint.

// RunLazyRestartHooks invokes every plugin's LazyRestart hook, in
// registration order.
func (e *Engine) RunLazyRestartHooks(ctx context.Context, r *LazyRestorer) error {
	for _, p := range e.plugins {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := p.LazyRestart(ctx, r); err != nil {
			return fmt.Errorf("dmtcp: plugin %s restart: %w", p.Name(), err)
		}
	}
	return nil
}
