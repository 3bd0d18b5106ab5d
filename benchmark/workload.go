package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	crac "repro"
)

// env is what a workload is given: where to put files, the seed its
// inputs come from, how many clients drive it, and — in the traced run
// only — the tracer.
type env struct {
	ctx      context.Context
	tmp      string // root of this run's temp files
	seed     int64
	clients  int
	traced   bool    // wrap stores in timed decorators (off until armed)
	tr       *tracer // nil unless the traced phase is running
	setups   int     // set-ups done so far, for unique directory names
	bigBytes int     // size of the probes' bandwidth buffer
}

func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", name, e.setups))
	return d, os.MkdirAll(d, 0o755)
}

// budget ends a loop after a wall time, or after a fixed number of
// iterations when the run was given -ops (tests, and the exact-count
// comparison of -repeat).
type budget struct {
	start time.Time
	dur   time.Duration
	iters int
}

func (b *budget) more(i int) bool {
	if b.iters > 0 {
		return i < b.iters
	}
	return time.Since(b.start) < b.dur
}

// A workload builds its state in setup (called several times, so
// set-up time can be a median), runs closed-loop iterations until the
// budget ends, and releases everything in close.
type workload interface {
	setup(e *env) error
	// run executes iterations and returns one recorder per client.
	// It is called once per phase and continues from where the
	// previous call stopped.
	run(e *env, b *budget) ([]*recorder, error)
	// stored reports the bytes the backing store holds and the live
	// payload bytes they stand for.
	stored(e *env) (held, live uint64, err error)
	// arm switches the timed stores on or off.
	arm(on bool)
	// layers returns the timed stores' ledgers: the level the
	// sessions call, and the backing level.
	layers() (top, bottom storeTimes)
	// target hands the probe suite a session of the workload with the
	// store and image name of its last checkpoint.
	target() (s *sess, store crac.Store, name string)
	close()
}

// registry names the workloads. smokeOps is the iteration count of a
// -smoke run: the fewest that still take every path (for sparse_chain,
// two full chains, so two lazy restarts). warmOps is the iteration
// count of the unmeasured warm-up: one cycle of the workload (for
// sparse_chain one chain, for fleet_http sixteen visits to every session).
var registry = map[string]struct {
	smokeOps, warmOps int
	new               func() workload
}{
	"bulk_full":    {2, 2, func() workload { return &bulkFull{} }},
	"replay_churn": {2, 2, func() workload { return &replayChurn{} }},
	"sparse_chain": {2 * (sparseDepth + 1), sparseDepth + 1, func() workload { return &sparseChain{} }},
	"fleet_http":   {4 * fleetSessions, 16 * fleetSessions, func() workload { return &fleetHTTP{} }},
}

// single is what bulk_full and replay_churn share: one default session
// over one store, wrapped in a timed store when the run is traced.
type single struct {
	x       *sess
	backing crac.Store
	store   crac.Store // what the session checkpoints into
	timed   *timedStore
	live    uint64 // payload of the last checkpoint
}

func (w *single) open(e *env, backing crac.Store) error {
	w.backing, w.store, w.timed = backing, backing, nil
	if e.traced {
		w.timed = newTimedStore(backing, levelOnly)
		w.store = w.timed
	}
	s, err := crac.New()
	if err != nil {
		return err
	}
	if w.x, err = newSess(s); err != nil {
		s.Close()
	}
	return err
}

func (w *single) stored(e *env) (uint64, uint64, error) {
	held, err := storeBytes(e.ctx, w.backing)
	return held, w.live, err
}

// storeBytes sums the sizes of everything a store lists.
func storeBytes(ctx context.Context, store crac.Store) (uint64, error) {
	names, err := store.List(ctx)
	if err != nil {
		return 0, err
	}
	var held uint64
	for _, n := range names {
		ra, size, err := store.(crac.RandomAccessStore).GetAt(ctx, n)
		if err != nil {
			return 0, err
		}
		ra.Close()
		held += uint64(size)
	}
	return held, nil
}

func (w *single) arm(on bool) { w.timed.arm(on) }

func (w *single) layers() (storeTimes, storeTimes) {
	t := w.timed.totals()
	return t, t
}

func (w *single) close() {
	if w.x != nil {
		w.x.s.Close()
		w.x = nil
	}
}

// appRounds is the app phase bulk_full and sparse_chain run between the
// mutation and the checkpoint: ~8k small calls. replay_churn runs a far
// longer one, fleet_http one round per operation.
const appRounds = 256

// ckptSpans names the two checkpoint children that differ by stack:
// the wait before the checkpoint begins (a pool's admission queue;
// empty without a pool) and the commit after the last byte (fsync and
// rename for a DirStore, the response round trip for an HTTP store).
type ckptSpans struct{ queue, commit string }

var dirSpans = ckptSpans{commit: "store.put.commit"}

// timedCheckpoint runs one checkpoint call under an op span. The
// children are the ledger of a checkpoint as seen from outside: what
// the call returned (pause, hooks, image write) and what the timed
// stores measured (their own Write, the commit, CAS in between).
func timedCheckpoint(e *env, rec *recorder, latency bool, sp ckptSpans,
	call func(ctx context.Context) (crac.Stats, error)) (crac.Stats, error) {
	var acc *opAcc
	if e.tr != nil {
		acc = &opAcc{}
	}
	t0 := time.Now()
	st, err := call(withAcc(e.ctx, acc))
	wall := time.Since(t0)
	if err != nil {
		rec.fail()
		return st, err
	}
	rec.checkpoint(st, wall, latency)
	if acc != nil {
		op := e.tr.op("ckpt", t0, wall)
		if sp.queue != "" {
			e.tr.child(op, sp.queue, wall-st.Duration-(acc.top.putWall-acc.top.putCallback))
		}
		if st.PauseDuration < st.Duration {
			e.tr.child(op, "session.pause", st.PauseDuration)
		}
		e.tr.child(op, "cracplugin.hooks", st.HookDuration)
		e.tr.child(op, "dmtcp.write", st.WriteDuration-acc.top.putWrite)
		if acc.bottom.puts != acc.top.puts {
			e.tr.child(op, "cas.self", casSelf(acc.top, acc.bottom))
		}
		e.tr.child(op, "store.put.write", acc.bottom.putWrite)
		e.tr.child(op, sp.commit, acc.bottom.putWall-acc.bottom.putCallback)
	}
	return st, nil
}

// casSelf is the time a Put spent in the CAS layer itself: the whole
// call, minus the engine producing the image (callback time outside
// Write), minus the backing store's own calls.
func casSelf(top, bottom storeTimes) time.Duration {
	return top.putWall - (top.putCallback - top.putWrite) - bottom.putWall
}

// timedRestart runs one eager restart under an op span, then the first
// kernel. Its children: reading the image out of the store, decoding
// it (the stream's open-to-close window minus the reads), and the
// restore that follows the close — lower-half rebuild, log replay and
// refill, which cannot be told apart from outside.
func timedRestart(e *env, rec *recorder, x *sess, bytes uint64,
	call func(ctx context.Context) error) error {
	var acc *opAcc
	if e.tr != nil {
		acc = &opAcc{}
	}
	t0 := time.Now()
	err := call(withAcc(e.ctx, acc))
	t1 := time.Now()
	if err == nil {
		err = x.firstKernel()
	}
	if err != nil {
		rec.fail()
		return err
	}
	rec.restart(bytes, t1.Sub(t0), time.Since(t0))
	if acc != nil {
		op := e.tr.op("restart", t0, t1.Sub(t0))
		e.tr.child(op, "store.get", acc.top.getWall)
		if !acc.readClosed.IsZero() {
			e.tr.child(op, "dmtcp.read", acc.readClosed.Sub(t0)-acc.top.getWall)
			e.tr.child(op, "cracplugin.restore", t1.Sub(acc.readClosed))
		}
	}
	return nil
}

// checkContent runs the oracle after a restart, outside every timed
// window. A mismatch turns the restart just recorded into a failed op.
func checkContent(rec *recorder, x *sess, rng *rand.Rand) error {
	bad, err := x.verify(rng)
	if err != nil {
		return err
	}
	if bad > 0 {
		rec.failed++
		fmt.Fprintf(os.Stderr, "oracle: %d page(s) differ from the model after restart\n", bad)
	}
	return nil
}
