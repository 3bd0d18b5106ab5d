package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	crac "repro"
)

// sparseChain: one session with ~66 MiB live in 2 MiB buffers (16 pinned
// host, 16 device, 1 managed), 256 KiB shards, ~3% dirtied per step.
// Every step takes a CheckpointAsync+Wait into a CASStore over a
// DirStore (keep 32, fsync on) with WithIncremental(15): a base, then
// fifteen deltas. Each depth-15 tip is restarted from lazily — one
// kernel launch and sync (time to first kernel), then the drain — and
// every fourth chain is compacted and its chunks collected, so stored
// bytes level off. Same engine and store as bulkFull, used differently:
// delta writer, random-access reads, CoW snapshot, background work.
type sparseChain struct {
	x     *sess
	dir   *crac.DirStore
	cas   *crac.CASStore
	store crac.Store  // what the session checkpoints into
	top   *timedStore // above CAS; nil untraced
	inner *timedStore // under CAS; nil untraced
	bufs  []*buffer   // the 2 MiB buffers the generator dirties
	rng   *rand.Rand
	orng  *rand.Rand
	gen   int
	live  uint64 // payload of the last base: the whole live state
	held  uint64 // backing-store bytes after the last GC
}

const (
	sparseBufSize   = 2 << 20
	sparseHostBufs  = 16
	sparseDevBufs   = 16
	sparseShard     = 256 << 10
	sparseDepth     = 15
	sparseExtent    = sparseShard // dirt is shard-aligned: device shards are content-hashed whole
	sparseExtents   = 8           // × 256 KiB = 2 MiB ≈ 3% of the live bytes
	sparseCompactAt = 4 * (sparseDepth + 1)
	sparseTip       = "tip"
)

func (w *sparseChain) setup(e *env) error {
	w.rng = rand.New(rand.NewSource(e.seed))
	w.orng = rand.New(rand.NewSource(e.seed ^ 0x5eed))
	w.gen, w.held, w.bufs = 0, 0, nil
	dir, err := e.dir("sparse")
	if err != nil {
		return err
	}
	ds, err := crac.NewDirStore(dir, 32)
	if err != nil {
		return err
	}
	w.dir = ds
	w.top, w.inner = nil, nil
	if e.traced {
		w.inner = newTimedStore(ds, levelBacking)
		w.cas = crac.NewCASStore(w.inner)
		w.top = newTimedStore(w.cas, levelTop)
		w.store = w.top
	} else {
		w.cas = crac.NewCASStore(ds)
		w.store = w.cas
	}
	s, err := crac.New(crac.WithIncremental(sparseDepth), crac.WithShardSize(sparseShard))
	if err != nil {
		return err
	}
	if w.x, err = newSess(s); err != nil {
		s.Close()
		return err
	}
	rt := w.x.rt
	alloc := func(n int, f func(uint64) (uint64, error)) error {
		for i := 0; i < n; i++ {
			a, err := f(sparseBufSize)
			if err != nil {
				return err
			}
			b := w.x.m.add(a, sparseBufSize)
			w.bufs = append(w.bufs, b)
			if err := w.x.fill(b, 0, b.size, byte(w.rng.Intn(256))); err != nil {
				return err
			}
		}
		return nil
	}
	if err := alloc(sparseHostBufs, rt.HostAlloc); err != nil {
		return err
	}
	if err := alloc(sparseDevBufs, rt.Malloc); err != nil {
		return err
	}
	return alloc(1, rt.MallocManaged)
}

func (w *sparseChain) name(gen int) string { return fmt.Sprintf("g%06d", gen) }

func (w *sparseChain) run(e *env, b *budget) ([]*recorder, error) {
	rec := &recorder{}
	for i := 0; ; i++ {
		// A timed run ends where a chain ends. Cut off mid-chain it holds
		// a varying number of cheap deltas without the base, restart and
		// compaction they belong to, and every per-op figure moves with
		// where the cut fell (allocation per op: 17% between runs).
		if (b.iters > 0 || w.gen%(sparseDepth+1) == 0) && !b.more(i) {
			break
		}
		for k := 0; k < sparseExtents; k++ {
			buf := w.bufs[w.rng.Intn(len(w.bufs))]
			off := uint64(w.rng.Intn(sparseBufSize/sparseExtent)) * sparseExtent
			if err := w.x.fill(buf, off, sparseExtent, byte(w.rng.Intn(256))); err != nil {
				return nil, err
			}
		}
		if err := w.x.appPhase(e, rec, w.rng, appRounds); err != nil {
			return nil, err
		}

		name := w.name(w.gen)
		// The latency population is the delta checkpoints; the base that
		// opens each chain still counts for throughput and bytes.
		delta := w.gen%(sparseDepth+1) != 0
		st, err := timedCheckpoint(e, rec, delta, dirSpans, func(ctx context.Context) (crac.Stats, error) {
			p, err := w.x.s.CheckpointAsync(ctx, w.store, name)
			if err != nil {
				return crac.Stats{}, err
			}
			return p.Wait()
		})
		if err != nil {
			return nil, err
		}
		if st.Delta != delta {
			return nil, fmt.Errorf("sparse_chain: generation %d: delta=%v, expected %v", w.gen, st.Delta, delta)
		}
		if !st.Delta {
			w.live = payload(st)
		}
		w.x.m.commit(sparseTip)

		if st.DeltaDepth == sparseDepth {
			if err := w.x.scribble(); err != nil {
				return nil, err
			}
			if err := w.lazyRestart(e, rec, name); err != nil {
				return nil, err
			}
			if (w.gen+1)%sparseCompactAt == 0 {
				if err := rec.maintain(func() error { return w.compact(e, name) }); err != nil {
					return nil, err
				}
			}
		}
		w.gen++
	}
	return []*recorder{rec}, nil
}

// lazyRestart restarts from the chain tip: RestartAsync returns once
// the session can execute, one kernel runs, then Wait drains the rest.
func (w *sparseChain) lazyRestart(e *env, rec *recorder, name string) error {
	var acc *opAcc
	if e.tr != nil {
		acc = &opAcc{}
	}
	ctx := withAcc(e.ctx, acc)
	t0 := time.Now()
	p, err := w.x.s.RestartAsync(ctx, w.store, name)
	if err != nil {
		rec.fail()
		return err
	}
	if acc != nil {
		acc.lazyBackground.Store(true)
	}
	if err := w.x.firstKernel(); err != nil {
		rec.fail()
		return err
	}
	ttfk := time.Since(t0)
	st, err := p.Wait()
	wall := time.Since(t0)
	if err != nil {
		rec.fail()
		return err
	}
	rec.restart(w.live, wall, ttfk)
	if acc != nil {
		// The timed store forwards GetAt: a lazy restart must reach
		// every chain member through it and never stream one whole.
		if acc.top.gets != 0 || acc.top.getAts == 0 {
			return fmt.Errorf("sparse_chain: lazy restart made %d Get and %d GetAt calls: random access was lost",
				acc.top.gets, acc.top.getAts)
		}
		op := e.tr.op("restart", t0, wall)
		e.tr.child(op, "dmtcp.lazy.visible", st.RestoreVisibleDuration)
		bg := e.tr.child(op, "dmtcp.lazy.background", st.RestoreBackgroundDuration)
		// Reads overlap across prefetch workers: cap the children at
		// the drain they ran inside.
		reads := min(acc.top.getWall, st.RestoreBackgroundDuration)
		under := min(acc.bottom.getWall, reads)
		e.tr.child(bg, "cas.reassemble", reads-under)
		e.tr.child(bg, "store.getat", under)
	}
	if err := w.x.m.rollback(sparseTip); err != nil {
		return err
	}
	return checkContent(rec, w.x, w.orng)
}

// compact squashes the chain under tip into one base and collects the
// chunks it stranded, then reads what the backing store still holds.
// It runs on the CASStore directly: maintenance from stored bytes, no
// session involved.
func (w *sparseChain) compact(e *env, tip string) error {
	t0 := time.Now()
	if _, err := crac.Compact(e.ctx, w.cas, tip); err != nil {
		return fmt.Errorf("sparse_chain: compact %s: %w", tip, err)
	}
	e.tr.op("compact", t0, time.Since(t0))
	t1 := time.Now()
	if _, err := w.cas.GC(e.ctx); err != nil {
		return fmt.Errorf("sparse_chain: gc: %w", err)
	}
	e.tr.op("gc", t1, time.Since(t1))
	var err error
	w.held, err = storeBytes(e.ctx, w.dir)
	return err
}

func (w *sparseChain) stored(e *env) (uint64, uint64, error) {
	if w.held == 0 { // too short a run to reach a compaction
		held, err := storeBytes(e.ctx, w.dir)
		return held, w.live, err
	}
	return w.held, w.live, nil
}

func (w *sparseChain) arm(on bool) {
	w.top.arm(on)
	w.inner.arm(on)
}

func (w *sparseChain) layers() (storeTimes, storeTimes) {
	return w.top.totals(), w.inner.totals()
}

func (w *sparseChain) target() (*sess, crac.Store, string) {
	return w.x, w.store, w.name(w.gen - 1)
}

func (w *sparseChain) close() {
	if w.x != nil {
		w.x.s.Close()
		w.x = nil
	}
}
