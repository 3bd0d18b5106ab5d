package main

import (
	"context"
	"math/rand"

	crac "repro"
)

// bulkFull: one session with ~68 MiB live (16 × 4 MiB device, 4 × 1 MiB
// pinned host). Every iteration rewrites every buffer, takes a blocking
// full checkpoint into a DirStore (fsync on) under one reused name, and
// restarts eagerly from that image. Byte moving dominates: view read,
// shard hash, frame, CRC, store commit; decode and refill.
type bulkFull struct {
	single
	rng  *rand.Rand // generator
	orng *rand.Rand // oracle sampling
}

const (
	bulkDevBufs  = 16
	bulkDevSize  = 4 << 20
	bulkHostBufs = 4
	bulkHostSize = 1 << 20
	bulkImage    = "img"
)

func (w *bulkFull) setup(e *env) error {
	w.rng = rand.New(rand.NewSource(e.seed))
	w.orng = rand.New(rand.NewSource(e.seed ^ 0x5eed))
	dir, err := e.dir("bulk")
	if err != nil {
		return err
	}
	ds, err := crac.NewDirStore(dir, 0)
	if err != nil {
		return err
	}
	if err := w.open(e, ds); err != nil {
		return err
	}
	for i := 0; i < bulkDevBufs; i++ {
		a, err := w.x.rt.Malloc(bulkDevSize)
		if err != nil {
			return err
		}
		w.x.m.add(a, bulkDevSize)
	}
	for i := 0; i < bulkHostBufs; i++ {
		a, err := w.x.rt.HostAlloc(bulkHostSize)
		if err != nil {
			return err
		}
		w.x.m.add(a, bulkHostSize)
	}
	return w.rewrite()
}

// rewrite is the mutation: one Memset per buffer, a fresh byte each.
func (w *bulkFull) rewrite() error {
	for _, b := range w.x.m.bufs {
		if err := w.x.fill(b, 0, b.size, byte(w.rng.Intn(256))); err != nil {
			return err
		}
	}
	return nil
}

func (w *bulkFull) run(e *env, b *budget) ([]*recorder, error) {
	rec := &recorder{}
	for i := 0; b.more(i); i++ {
		if err := w.rewrite(); err != nil {
			return nil, err
		}
		if err := w.x.appPhase(e, rec, w.rng, appRounds); err != nil {
			return nil, err
		}

		st, err := timedCheckpoint(e, rec, true, dirSpans, func(ctx context.Context) (crac.Stats, error) {
			return w.x.s.CheckpointTo(ctx, w.store, bulkImage)
		})
		if err != nil {
			return nil, err
		}
		w.live = payload(st)
		w.x.m.commit(bulkImage)

		if err := w.x.scribble(); err != nil {
			return nil, err
		}
		err = timedRestart(e, rec, w.x, w.live, func(ctx context.Context) error {
			return w.x.s.RestartFrom(ctx, w.store, bulkImage)
		})
		if err != nil {
			return nil, err
		}
		if err := w.x.m.rollback(bulkImage); err != nil {
			return nil, err
		}
		if err := checkContent(rec, w.x, w.orng); err != nil {
			return nil, err
		}
	}
	return []*recorder{rec}, nil
}

func (w *bulkFull) target() (*sess, crac.Store, string) { return w.x, w.store, bulkImage }
