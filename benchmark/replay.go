package main

import (
	"context"
	"math/rand"

	crac "repro"
	"repro/internal/crt"
)

// replayChurn: the paper's Heartwall/Streamcluster case. Set-up issues
// thousands of Malloc/Free pairs, so a restart is log replay rather
// than bytes (only ~1 MiB stays live), and takes a golden image once.
// Every iteration restarts from the golden image — which keeps the log
// length stationary — runs an app phase of ~28k small CUDA calls (the
// paper's runtime-overhead path: trampoline, fs switch, log append),
// and checkpoints.
type replayChurn struct {
	single
	rng    *rand.Rand
	orng   *rand.Rand
	golden uint64 // payload of the golden image
}

const (
	replayPairs    = 6000 // Malloc/Free pairs in the golden log
	replayLiveBufs = 4
	replayLiveSize = 256 << 10
	replayStreams  = 32
	replayEvents   = 8
	replayRounds   = 900 // app-phase rounds of appRoundCalls calls
	replayAppPairs = 200 // logged Malloc/Free pairs closing the app phase
	replayGolden   = "golden"
	replayCurrent  = "cur"
)

func (w *replayChurn) setup(e *env) error {
	w.rng = rand.New(rand.NewSource(e.seed))
	w.orng = rand.New(rand.NewSource(e.seed ^ 0x5eed))
	// A MemStore: this workload is about replay and call overhead, and
	// a 1.5 MiB image's fsync would only add the disk's noise to it.
	if err := w.open(e, crac.NewMemStore()); err != nil {
		return err
	}
	rt := w.x.rt
	for i := 0; i < replayLiveBufs; i++ {
		a, err := rt.Malloc(replayLiveSize)
		if err != nil {
			return err
		}
		b := w.x.m.add(a, replayLiveSize)
		if err := w.x.fill(b, 0, b.size, byte(w.rng.Intn(256))); err != nil {
			return err
		}
	}
	if err := w.x.addStreams(replayStreams-len(w.x.streams), replayEvents-len(w.x.events)); err != nil {
		return err
	}
	if err := mallocFreePairs(rt, w.rng, replayPairs); err != nil {
		return err
	}
	st, err := w.x.s.CheckpointTo(e.ctx, w.store, replayGolden)
	if err != nil {
		return err
	}
	w.golden = payload(st)
	w.x.m.commit(replayGolden)
	return nil
}

// mallocFreePairs issues n logged Malloc/Free pairs of 4–32 KiB.
func mallocFreePairs(rt crt.Runtime, rng *rand.Rand, n int) error {
	for i := 0; i < n; i++ {
		a, err := rt.Malloc(uint64(1+rng.Intn(8)) * pageSize)
		if err != nil {
			return err
		}
		if err := rt.Free(a); err != nil {
			return err
		}
	}
	return nil
}

func (w *replayChurn) run(e *env, b *budget) ([]*recorder, error) {
	rec := &recorder{}
	for i := 0; b.more(i); i++ {
		err := timedRestart(e, rec, w.x, w.golden, func(ctx context.Context) error {
			return w.x.s.RestartFrom(ctx, w.store, replayGolden)
		})
		if err != nil {
			return nil, err
		}
		if err := w.x.m.rollback(replayGolden); err != nil {
			return nil, err
		}
		if err := checkContent(rec, w.x, w.orng); err != nil {
			return nil, err
		}

		if err := w.x.appPhase(e, rec, w.rng, replayRounds); err != nil {
			return nil, err
		}
		if err := mallocFreePairs(w.x.rt, w.rng, replayAppPairs); err != nil {
			return nil, err
		}

		st, err := timedCheckpoint(e, rec, true, dirSpans, func(ctx context.Context) (crac.Stats, error) {
			return w.x.s.CheckpointTo(ctx, w.store, replayCurrent)
		})
		if err != nil {
			return nil, err
		}
		w.live = payload(st)
	}
	return []*recorder{rec}, nil
}

func (w *replayChurn) target() (*sess, crac.Store, string) { return w.x, w.store, replayGolden }
