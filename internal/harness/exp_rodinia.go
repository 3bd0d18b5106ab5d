package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	crac "repro"
	"repro/internal/cracrt"
	"repro/internal/gpusim"
	"repro/internal/replaylog"
	"repro/internal/workloads"
	"repro/internal/workloads/rodinia"
)

// runOnce executes app once on a fresh runner of the given mode.
func runOnce(mode Mode, prop gpusim.Properties, app *workloads.App, cfg workloads.RunConfig) (workloads.Result, error) {
	r, err := NewRunner(mode, prop)
	if err != nil {
		return workloads.Result{}, err
	}
	defer r.Close()
	return app.Run(r.RT, cfg)
}

// measureModes times app under each mode with interleaved repetitions:
// one discarded warmup per mode, then iters rounds running every mode
// back to back (so environment noise hits all modes alike), with a GC
// settling the heap before each timed run. The per-mode MEDIAN is
// returned — medians resist the multi-millisecond scheduler flukes of
// shared CI machines better than the paper's mean-of-10 on dedicated
// nodes.
func measureModes(modes []Mode, prop gpusim.Properties, app *workloads.App, cfg workloads.RunConfig, iters int) (median map[Mode]float64, last map[Mode]workloads.Result, err error) {
	median = make(map[Mode]float64, len(modes))
	last = make(map[Mode]workloads.Result, len(modes))
	times := make(map[Mode][]float64, len(modes))
	for _, mode := range modes {
		if _, e := runOnce(mode, prop, app, cfg); e != nil { // warmup
			return nil, nil, fmt.Errorf("%s under %v: %w", app.Name, mode, e)
		}
	}
	for i := 0; i < iters; i++ {
		for _, mode := range modes {
			runtime.GC()
			res, e := runOnce(mode, prop, app, cfg)
			if e != nil {
				return nil, nil, fmt.Errorf("%s under %v: %w", app.Name, mode, e)
			}
			times[mode] = append(times[mode], res.Elapsed.Seconds())
			last[mode] = res
		}
	}
	for _, mode := range modes {
		ts := times[mode]
		sort.Float64s(ts)
		if n := len(ts); n%2 == 1 {
			median[mode] = ts[n/2]
		} else {
			median[mode] = (ts[n/2-1] + ts[n/2]) / 2
		}
	}
	return median, last, nil
}

func init() {
	register(&Experiment{
		ID:    "table2",
		Title: "Command-line arguments for Rodinia benchmarks (Table 2)",
		Paper: "the paper's exact command lines; this repository scales the same workloads to laptop size via -scale",
		Run: func(opt Options) ([]*Table, error) {
			t := &Table{
				ID:      "table2",
				Title:   "Rodinia command-line arguments (paper) and repository workloads",
				Columns: []string{"Application", "Paper command-line argument(s)", "Repository workload"},
			}
			for _, app := range rodinia.AllApps() {
				t.AddRow(app.Name, app.PaperArgs, app.Char.Description)
			}
			t.AddRow("LULESH", "-s 150", "structured-grid shock hydro, streams")
			t.Note("problem sizes scale with the -scale flag; defaults are the paper's configurations shrunk for CI")
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "fig2",
		Title: "Rodinia runtimes, native vs CRAC, with total CUDA calls (Figure 2)",
		Paper: "0–2% overhead for apps running >10s; 1–14% for short-running apps; call counts 100–800K",
		Run:   runFig2,
	})

	register(&Experiment{
		ID:    "fig3",
		Title: "Rodinia checkpoint and restart times with image sizes (Figure 3)",
		Paper: "ckpt & restart <1s for all; Heartwall and Streamcluster restart slower than checkpoint (cudaMalloc/cudaFree replay)",
		Run:   runFig3,
	})

	register(&Experiment{
		ID:    "fig6",
		Title: "CRAC overhead with and without the FSGSBASE kernel patch (Figure 6)",
		Paper: "FSGSBASE gives a small, often near-zero improvement over syscall-based fs switching (Quadro K600)",
		Run:   runFig6,
	})
}

func runFig2(opt Options) ([]*Table, error) {
	prop := gpusim.TeslaV100()
	iters := opt.EffIters()
	cfg := workloads.RunConfig{Scale: opt.EffScale(), Seed: 7}
	t := &Table{
		ID:    "fig2",
		Title: "Rodinia runtimes without and with CRAC (Nvidia V100 simulated)",
		Columns: []string{"Benchmark", "native (s)", "CRAC (s)", "overhead %",
			"CUDA calls", "CPS"},
	}
	for _, app := range rodinia.Apps() {
		opt.logf("fig2: %s", app.Name)
		med, res, err := measureModes([]Mode{ModeNative, ModeCRAC}, prop, app, cfg, iters)
		if err != nil {
			return nil, err
		}
		nat, cr := med[ModeNative], med[ModeCRAC]
		t.AddRow(app.Name, fmtF(nat, 3), fmtF(cr, 3),
			fmtF(overheadPct(cr, nat), 1),
			fmtCalls(res[ModeCRAC].Calls.TotalCUDACalls()), fmtCalls(uint64(res[ModeCRAC].CPS())))
	}
	t.Note("median of %d interleaved iterations (paper: mean of 10 on a dedicated node)", iters)
	t.Note("overhead%% per Equation 1; total CUDA calls per the 3x-launch formula of Section 4.3")
	return []*Table{t}, nil
}

// midRun is what checkpointMidRun measured.
type midRun struct {
	ckpt, restart time.Duration
	// replay is full replay of the call history up to the checkpoint
	// (cracrt.Replay) on a fresh lower half: the restart the paper
	// describes, which the session no longer performs.
	replay  time.Duration
	imgSize int64
	// history counts the logged calls up to the checkpoint, which full
	// replay re-executes; logged counts the entries of the image's log,
	// its normal form, from which the session restarts.
	history, logged int
	res             workloads.Result
}

// checkpointMidRun runs app under a fresh CRAC session, checkpoints at
// roughly the middle hook step, restarts from the image immediately
// (simulating a failure), and lets the app run to completion. It returns
// the measured checkpoint, restart and full-replay durations, the image
// size, the history and image-log lengths, and the completed result.
// The history is recorded by an observer on the runtime: neither the
// runtime's log nor the image keeps it.
func checkpointMidRun(prop gpusim.Properties, app *workloads.App, cfg workloads.RunConfig) (midRun, error) {
	var m midRun
	// Pass 1: count hook steps.
	steps := 0
	countCfg := cfg
	countCfg.Hook = func(int) error { steps++; return nil }
	r, err := NewRunner(ModeCRAC, prop)
	if err != nil {
		return m, err
	}
	if _, err = app.Run(r.RT, countCfg); err != nil {
		r.Close()
		return m, err
	}
	r.Close()
	target := steps / 2

	// Pass 2: checkpoint at the target step, restart, continue.
	r, err = NewRunner(ModeCRAC, prop)
	if err != nil {
		return m, err
	}
	defer r.Close()
	var hist replaylog.History
	r.Session.CRACRuntime().Observe(hist.Record)
	dir, err := os.MkdirTemp("", "crac-fig3-")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(dir)
	imgPath := filepath.Join(dir, "ckpt.img")
	store, err := crac.NewDirStore(dir, 0, crac.WithNoSync())
	if err != nil {
		return m, err
	}
	ctx := context.Background()

	step := 0
	runCfg := cfg
	runCfg.Hook = func(int) error {
		step++
		if step != target+1 {
			return nil
		}
		// Minimum of three timed repetitions per operation: single-shot
		// checkpoint/restart timings jitter by whole milliseconds under
		// GC and scheduler noise — the minimum is the stable signal. Every
		// repetition
		// restores the identical state, so the application's checksum is
		// unaffected.
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			if _, cerr := r.Session.CheckpointTo(ctx, store, "ckpt"); cerr != nil {
				return cerr
			}
			if d := time.Since(t0); k == 0 || d < m.ckpt {
				m.ckpt = d
			}
		}
		fi, serr := os.Stat(imgPath)
		if serr != nil {
			return serr
		}
		m.imgSize = fi.Size()
		// Restarts repeat five times (they churn the most allocation and
		// so jitter hardest under GC).
		for k := 0; k < 5; k++ {
			t0 := time.Now()
			if rerr := r.Session.RestartFrom(ctx, store, "ckpt"); rerr != nil {
				return rerr
			}
			if d := time.Since(t0); k == 0 || d < m.restart {
				m.restart = d
			}
		}
		img, ierr := crac.OpenImageFrom(ctx, store, "ckpt")
		if ierr != nil {
			return ierr
		}
		lg, ierr := img.Log()
		if ierr == nil && lg == nil {
			ierr = fmt.Errorf("image has no call log")
		}
		if ierr != nil {
			return ierr
		}
		history := hist.Entries()
		m.history, m.logged = len(history), lg.Entries
		var rerr error
		m.replay, rerr = fullReplay(prop, history)
		return rerr
	}
	m.res, err = app.Run(r.RT, runCfg)
	if err != nil {
		return m, fmt.Errorf("%s: %w", app.Name, err)
	}
	if m.ckpt == 0 && target > 0 {
		return m, fmt.Errorf("%s: checkpoint hook never fired (steps=%d)", app.Name, steps)
	}
	return m, nil
}

// fullReplay times cracrt.Replay of a recorded call history on the
// fresh lower half of a new session: the whole malloc/free history
// re-executed, as the paper's CRAC restarts.
func fullReplay(prop gpusim.Properties, history []replaylog.Entry) (time.Duration, error) {
	fresh, err := crac.New(crac.WithDevice(prop))
	if err != nil {
		return 0, err
	}
	defer fresh.Close()
	t0 := time.Now()
	if _, err := cracrt.Replay(fresh.Library(), history); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func runFig3(opt Options) ([]*Table, error) {
	prop := gpusim.TeslaV100()
	cfg := workloads.RunConfig{Scale: opt.EffScale(), Seed: 7}
	t := &Table{
		ID:    "fig3",
		Title: "Checkpoint and restart times of Rodinia benchmarks with image sizes",
		Columns: []string{"Benchmark", "checkpoint (s)", "restart (s)", "full replay (s)",
			"history / image log entries", "image size", "restart/ckpt"},
	}
	for _, app := range rodinia.Apps() {
		opt.logf("fig3: %s", app.Name)
		m, err := checkpointMidRun(prop, app, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(app.Name, fmtF(m.ckpt.Seconds(), 3), fmtF(m.restart.Seconds(), 3), fmtF(m.replay.Seconds(), 3),
			m.entryCounts(), FmtBytes(uint64(m.imgSize)), fmtF(m.restartRatio(), 2))
	}
	t.Note("checkpoint at mid-run; gzip disabled as in the paper (Section 4.4.1)")
	t.Note("restart issues the image's active set onto its recorded arena layout; full replay re-executes the whole cudaMalloc/cudaFree history on a fresh lower half, as the paper's CRAC does — there Heartwall and Streamcluster replay long histories, the paper's two outliers")
	t.Note("history / image log entries: calls full replay re-executes / entries of the image's call log, its normal form (live resources plus dead highest handles)")
	return []*Table{t}, nil
}

// entryCounts renders the history and image-log lengths as one cell.
func (m midRun) entryCounts() string { return fmt.Sprintf("%d / %d", m.history, m.logged) }

// restartRatio is restart over checkpoint time (0 without a checkpoint).
func (m midRun) restartRatio() float64 {
	if m.ckpt <= 0 {
		return 0
	}
	return m.restart.Seconds() / m.ckpt.Seconds()
}

func runFig6(opt Options) ([]*Table, error) {
	// The FSGSBASE experiments ran on a local Quadro K600 node
	// (Section 4.4.5).
	prop := gpusim.QuadroK600()
	iters := opt.EffIters()
	cfg := workloads.RunConfig{Scale: opt.EffScale(), Seed: 7}
	t := &Table{
		ID:    "fig6",
		Title: "Rodinia under CRAC on unpatched vs FSGSBASE-patched kernels (Quadro K600 simulated)",
		Columns: []string{"Benchmark", "native (s)", "CRAC syscall (s)", "CRAC FSGSBASE (s)",
			"ovh syscall %", "ovh FSGSBASE %", "delta pp"},
	}
	for _, app := range rodinia.Apps() {
		opt.logf("fig6: %s", app.Name)
		med, _, err := measureModes([]Mode{ModeNative, ModeCRAC, ModeCRACFSGSBase}, prop, app, cfg, iters)
		if err != nil {
			return nil, err
		}
		nat, sys, fsg := med[ModeNative], med[ModeCRAC], med[ModeCRACFSGSBase]
		ovhS := overheadPct(sys, nat)
		ovhF := overheadPct(fsg, nat)
		t.AddRow(app.Name, fmtF(nat, 3), fmtF(sys, 3), fmtF(fsg, 3),
			fmtF(ovhS, 1), fmtF(ovhF, 1), fmtF(ovhF-ovhS, 1))
	}
	t.Note("delta pp = FSGSBASE overhead minus syscall overhead, in percentage points (lower is better)")
	return []*Table{t}, nil
}
