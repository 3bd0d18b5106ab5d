package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	crac "repro"
	"repro/internal/kernels"
)

func init() {
	register(&Experiment{
		ID:    "migrate",
		Title: "Live migration: pre-copy convergence and downtime vs stop-copy-restart",
		Paper: "beyond the paper: CRAC's incremental chain as the pre-copy stream — iterative v3 deltas while the source runs, one CoW cut for the tail, lazy activation at the destination",
		Run:   runMigrate,
	})
}

// migSession builds one source session with the experiment's workload:
// registered kernels, a spread of host and device buffers, and a
// deterministic fill.
func migSession(bufSize uint64, bufs int) (*crac.Session, *crac.KernelRegistry, []uint64, []uint64, error) {
	reg := crac.NewKernelRegistry().AddTable(kernels.Module, kernels.Table())
	s, err := crac.New(crac.WithWorkers(0), crac.WithIncremental(64),
		crac.WithShardSize(256<<10), crac.WithKernels(reg))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rt := s.Runtime()
	fat, err := rt.RegisterFatBinary(kernels.Module)
	if err != nil {
		s.Close()
		return nil, nil, nil, nil, err
	}
	for name, k := range kernels.Table() {
		if err := rt.RegisterFunction(fat, name, k); err != nil {
			s.Close()
			return nil, nil, nil, nil, err
		}
	}
	var host, dev []uint64
	for i := 0; i < bufs; i++ {
		h, err := rt.HostAlloc(bufSize)
		if err != nil {
			s.Close()
			return nil, nil, nil, nil, err
		}
		if err := rt.Memset(h, byte(i+1), bufSize); err != nil {
			s.Close()
			return nil, nil, nil, nil, err
		}
		host = append(host, h)
		d, err := rt.Malloc(bufSize)
		if err != nil {
			s.Close()
			return nil, nil, nil, nil, err
		}
		if err := rt.Memset(d, byte(0x31*i+7), bufSize); err != nil {
			s.Close()
			return nil, nil, nil, nil, err
		}
		dev = append(dev, d)
	}
	return s, reg, host, dev, nil
}

// runMigrate compares moving a running session to a second one via
// stop-copy-restart (quiesce, full checkpoint, waited restore — the
// whole image inside the outage) against Migrate's iterative pre-copy
// (deltas stream while the source executes; only the final CoW cut and
// the lazy activation sit in the outage). Mutators dirty memory
// throughout, so the pre-copy rounds must actually converge.
func runMigrate(opt Options) ([]*Table, error) {
	scale := opt.EffScale()
	bufSize := uint64(float64(1<<20) * scale)
	if bufSize < 64<<10 {
		bufSize = 64 << 10
	}
	const bufs = 12
	iters := opt.EffIters()
	ctx := context.Background()

	roundsTab := &Table{
		ID:    "migrate-rounds",
		Title: "Pre-copy rounds (bytes per round, last migration)",
		Columns: []string{"Round", "Image", "Kind", "Payload", "Dirty shards",
			"Pause (ms)", "Write (ms)"},
	}
	sum := &Table{
		ID:    "migrate",
		Title: "Session handoff downtime: stop-copy-restart vs live migration",
		Columns: []string{"Path", "Downtime (ms)", "In-outage bytes", "Pre-copied",
			"Rounds", "Speedup"},
	}

	// Baseline: stop-copy-restart. Everything — the full checkpoint and
	// the waited restore — happens while the session is stopped.
	var baseDown time.Duration
	var baseBytes uint64
	for i := 0; i < iters; i++ {
		opt.logf("migrate: stop-copy baseline iteration %d", i)
		s, reg, _, _, err := migSession(bufSize, bufs)
		if err != nil {
			return nil, err
		}
		dst := crac.NewMemStore()
		t0 := time.Now()
		if err := s.Quiesce(); err != nil {
			s.Close()
			return nil, err
		}
		st, err := s.CheckpointTo(ctx, dst, "stopcopy")
		if err != nil {
			s.Close()
			return nil, err
		}
		s2, err := crac.RestoreFrom(ctx, dst, "stopcopy", crac.WithKernels(reg))
		if err != nil {
			s.Close()
			return nil, err
		}
		down := time.Since(t0)
		if i == 0 || down < baseDown {
			baseDown = down
			baseBytes = st.PayloadWritten
		}
		s2.Close()
		s.Resume()
		s.Close()
	}

	// Live migration: mutators keep dirtying a window of buffers while
	// the pre-copy rounds stream, so convergence is earned, not given.
	var migDown time.Duration
	var best crac.MigrateReport
	for i := 0; i < iters; i++ {
		opt.logf("migrate: live migration iteration %d", i)
		s, _, host, dev, err := migSession(bufSize, bufs)
		if err != nil {
			return nil, err
		}
		rt := s.Runtime()
		src, dst := crac.NewMemStore(), crac.NewMemStore()
		stopMut := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The mutator hammers a bounded hot set (two host + two
			// device buffers) — the usual working-set shape pre-copy
			// converges on. Dirtying the whole footprint every round
			// would make pre-copy pointless by construction.
			hot := 2
			window := bufSize / 8
			for i := 0; ; i++ {
				select {
				case <-stopMut:
					return
				default:
				}
				if err := rt.Memset(host[i%hot], byte(i), window); err != nil {
					return
				}
				if err := rt.Memset(dev[i%hot], byte(i+3), window); err != nil {
					return
				}
			}
		}()
		m, err := crac.Migrate(ctx, s, src, dst,
			crac.WithMigrateRounds(6), crac.WithMigrateRoundDelay(time.Millisecond))
		if err != nil {
			close(stopMut)
			s.Close()
			return nil, err
		}
		if err := m.Wait(); err != nil {
			close(stopMut)
			s.Close()
			return nil, err
		}
		if i == 0 || m.Report.Downtime < migDown {
			migDown = m.Report.Downtime
			best = *m.Report
		}
		m.Dest.Close()
		close(stopMut)
		s.Resume()
		wg.Wait()
		s.Close()
	}

	for i, r := range best.Rounds {
		kind := "base"
		if r.Delta {
			kind = "delta"
		}
		if r.Final {
			kind += " (final cut)"
		}
		roundsTab.AddRow(fmt.Sprint(i), r.Name, kind, FmtBytes(r.PayloadBytes),
			fmt.Sprintf("%d/%d", r.DirtyShards, r.TotalShards),
			fmt.Sprintf("%.3f", float64(r.Pause.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(r.Duration.Microseconds())/1000))
	}
	roundsTab.Note("pre-copy rounds run with the source executing (mutators live); only the final cut pauses it")
	roundsTab.Note("converged=%v: true when the delta fell under the convergence threshold; a plateaued dirty rate (steady mutators) also ends pre-copy", best.Converged)

	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
	}
	speedup := 0.0
	if migDown > 0 {
		speedup = float64(baseDown) / float64(migDown)
	}
	sum.AddRow("stop-copy-restart", ms(baseDown), FmtBytes(baseBytes), "0B", "1",
		"1.0x")
	sum.AddRow("live migration", ms(migDown), FmtBytes(best.FinalBytes),
		FmtBytes(best.PreCopyBytes), fmt.Sprint(len(best.Rounds)),
		fmt.Sprintf("%.1fx", speedup))
	sum.Note("downtime: source stopped until the destination executes (migration activates lazily via RestartAsync)")
	sum.Note("in-outage bytes: payload written while the session was stopped — the final CoW cut for migration, the whole image for stop-copy")
	return []*Table{sum, roundsTab}, nil
}
