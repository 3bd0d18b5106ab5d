package harness

import (
	"fmt"
	"time"

	"repro/internal/gpusim"
	"repro/internal/workloads"
	"repro/internal/workloads/hpgmg"
	"repro/internal/workloads/hypre"
	"repro/internal/workloads/lulesh"
	"repro/internal/workloads/rodinia"
	"repro/internal/workloads/streamapps"
)

func init() {
	register(&Experiment{
		ID:    "table1",
		Title: "Application benchmark characterization (Table 1)",
		Paper: "Rodinia 38–132K CPS no UVM/streams; LULESH 2.5K CPS streams 2–32; simpleStreams 10K CPS streams 4–128; UMS 4.4K CPS UVM+streams; HPGMG-FV 35K CPS UVM; HYPRE 600 CPS UVM+streams 1–10",
		Run:   runTable1,
	})
	register(&Experiment{
		ID:    "fig4a",
		Title: "simpleStreams total runtime vs kernel iterations (Figure 4a)",
		Paper: "total runtime grows with niterations; CRAC tracks native within ~1%",
		Run:   runFig4a,
	})
	register(&Experiment{
		ID:    "fig4b",
		Title: "single-kernel execution time, streamed (128) vs non-streamed (Figure 4b)",
		Paper: "streamed per-kernel time far below non-streamed, gap growing with niterations; CRAC adds no kernel-time overhead",
		Run:   runFig4b,
	})
	register(&Experiment{
		ID:    "fig5a",
		Title: "stream-oriented benchmark runtimes: simpleStreams, UMS, LULESH (Figure 5a)",
		Paper: "CRAC within ~2% of native (SS <1%, UMS 1.5%, LULESH <2%); 128 streams for SS/UMS",
		Run:   runFig5a,
	})
	register(&Experiment{
		ID:    "fig5b",
		Title: "real-world benchmark runtimes: HPGMG-FV and HYPRE (Figure 5b)",
		Paper: "CRAC <2% overhead on HPGMG-FV (35K CPS), ~3% on HYPRE (600 CPS, large UVM)",
		Run:   runFig5b,
	})
	register(&Experiment{
		ID:    "fig5c",
		Title: "checkpoint/restart times and image sizes for the five stream/real-world apps (Figure 5c)",
		Paper: "ckpt and restart ≤ ~1.75s; HPGMG restart dominated by API replay; HYPRE image largest (2.3GB)",
		Run:   runFig5c,
	})
}

// streamFamilies returns the five stream-oriented and real-world apps of
// Figures 5a–5c in paper order, with their default run configs.
func streamFamilies(opt Options) []struct {
	app *workloads.App
	cfg workloads.RunConfig
} {
	scale := opt.EffScale()
	return []struct {
		app *workloads.App
		cfg workloads.RunConfig
	}{
		{streamapps.SimpleStreams(), workloads.RunConfig{Scale: scale, Streams: 128, Iters: 50, Reps: 15, Seed: 7}},
		{streamapps.UnifiedMemoryStreams(), workloads.RunConfig{Scale: scale, Streams: 128, Seed: 12701}},
		{lulesh.App(), workloads.RunConfig{Scale: scale, Streams: 8, Seed: 7}},
		{hpgmg.App(), workloads.RunConfig{Scale: scale, Seed: 7}},
		{hypre.App(), workloads.RunConfig{Scale: scale, Streams: 4, Seed: 7}},
	}
}

func runTable1(opt Options) ([]*Table, error) {
	prop := gpusim.TeslaV100()
	scale := opt.EffScale()
	t := &Table{
		ID:      "table1",
		Title:   "Application benchmarks characterization",
		Columns: []string{"Application", "UVM", "Streams", "CPS (measured)", "# streams"},
	}
	check := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}

	// Rodinia is characterized as a family with a CPS range.
	minCPS, maxCPS := 0.0, 0.0
	for _, app := range rodinia.Apps() {
		opt.logf("table1: %s", app.Name)
		res, err := runOnce(ModeCRAC, prop, app, workloads.RunConfig{Scale: scale, Seed: 7})
		if err != nil {
			return nil, err
		}
		cps := res.CPS()
		if minCPS == 0 || cps < minCPS {
			minCPS = cps
		}
		if cps > maxCPS {
			maxCPS = cps
		}
	}
	t.AddRow("Rodinia", "no", "no",
		fmt.Sprintf("%s-%s", fmtCalls(uint64(minCPS)), fmtCalls(uint64(maxCPS))), "-")

	for _, f := range streamFamilies(opt) {
		opt.logf("table1: %s", f.app.Name)
		res, err := runOnce(ModeCRAC, prop, f.app, f.cfg)
		if err != nil {
			return nil, err
		}
		streams := "-"
		if f.app.Char.Streams {
			streams = fmt.Sprintf("%d-%d", f.app.Char.MinStreams, f.app.Char.MaxStreams)
		}
		t.AddRow(f.app.Name, check(f.app.Char.UVM), check(f.app.Char.Streams),
			fmtCalls(uint64(res.CPS())), streams)
	}
	t.Note("paper's Table 1: Rodinia 38-132K, LULESH 2.5K, simpleStreams 10K, UMS 4.4K, HPGMG-FV 35K, HYPRE 600 CPS")
	return []*Table{t}, nil
}

// simpleStreamsSweep runs simpleStreams across the paper's niterations
// values under native and CRAC (interleaved, medians), returning results
// keyed by niter with the median runtime installed in Elapsed.
func simpleStreamsSweep(opt Options) (niters []int, native, cracRes map[int]workloads.Result, err error) {
	prop := gpusim.TeslaV100()
	app := streamapps.SimpleStreams()
	niters = []int{5, 10, 100, 500}
	if opt.Quick {
		niters = []int{5, 10}
	}
	iters := opt.EffIters()
	native = make(map[int]workloads.Result)
	cracRes = make(map[int]workloads.Result)
	for _, ni := range niters {
		reps := 8
		if ni < 100 {
			reps = 32 // short kernels need more repetitions to rise above noise
		}
		cfg := workloads.RunConfig{Scale: opt.EffScale() * 0.25, Streams: 128, Iters: ni, Reps: reps, Seed: 7}
		opt.logf("simpleStreams sweep: niterations=%d", ni)
		med, last, e := measureModes([]Mode{ModeNative, ModeCRAC}, prop, app, cfg, iters)
		if e != nil {
			return nil, nil, nil, e
		}
		rn, rc := last[ModeNative], last[ModeCRAC]
		rn.Elapsed = time.Duration(med[ModeNative] * float64(time.Second))
		rc.Elapsed = time.Duration(med[ModeCRAC] * float64(time.Second))
		native[ni] = rn
		cracRes[ni] = rc
	}
	return niters, native, cracRes, nil
}

func runFig4a(opt Options) ([]*Table, error) {
	niters, native, cracRes, err := simpleStreamsSweep(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig4a",
		Title:   "simpleStreams total runtime vs iterations within the CUDA kernel",
		Columns: []string{"niterations", "native (s)", "CRAC (s)", "overhead %"},
	}
	for _, ni := range niters {
		n, c := native[ni].Elapsed.Seconds(), cracRes[ni].Elapsed.Seconds()
		t.AddRow(fmt.Sprintf("%d", ni), fmtF(n, 3), fmtF(c, 3), fmtF(overheadPct(c, n), 1))
	}
	t.Note("1000 streamed + 1000 non-streamed kernels in the paper; scaled repetitions here")
	return []*Table{t}, nil
}

func runFig4b(opt Options) ([]*Table, error) {
	niters, native, cracRes, err := simpleStreamsSweep(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig4b",
		Title: "time to execute one CUDA kernel, non-streamed vs 128 streams",
		Columns: []string{"niterations", "native non-streamed (ms)", "CRAC non-streamed (ms)",
			"native 128 streams (ms)", "CRAC 128 streams (ms)"},
	}
	for _, ni := range niters {
		nd, cd := native[ni].Detail, cracRes[ni].Detail
		t.AddRow(fmt.Sprintf("%d", ni),
			fmtF(nd["kernel_ms_nonstreamed"], 3), fmtF(cd["kernel_ms_nonstreamed"], 3),
			fmtF(nd["kernel_ms_streamed"], 3), fmtF(cd["kernel_ms_streamed"], 3))
	}
	t.Note("streamed kernels cover 1/128th of the data each, so per-kernel time drops sharply (paper Figure 4b)")
	return []*Table{t}, nil
}

func runFig5a(opt Options) ([]*Table, error) {
	prop := gpusim.TeslaV100()
	iters := opt.EffIters()
	t := &Table{
		ID:      "fig5a",
		Title:   "Runtimes of stream-oriented benchmarks (SS=simpleStreams, UMS=UnifiedMemoryStreams)",
		Columns: []string{"Benchmark", "native (s)", "CRAC (s)", "overhead %", "CUDA calls"},
	}
	for _, f := range streamFamilies(opt)[:3] { // SS, UMS, LULESH
		opt.logf("fig5a: %s", f.app.Name)
		med, res, err := measureModes([]Mode{ModeNative, ModeCRAC}, prop, f.app, f.cfg, iters)
		if err != nil {
			return nil, err
		}
		nat, cr := med[ModeNative], med[ModeCRAC]
		t.AddRow(f.app.Name, fmtF(nat, 3), fmtF(cr, 3), fmtF(overheadPct(cr, nat), 1),
			fmtCalls(res[ModeCRAC].Calls.TotalCUDACalls()))
	}
	t.Note("SS and UMS at 128 streams (the V100 concurrent-kernel maximum)")
	return []*Table{t}, nil
}

func runFig5b(opt Options) ([]*Table, error) {
	prop := gpusim.TeslaV100()
	iters := opt.EffIters()
	t := &Table{
		ID:      "fig5b",
		Title:   "Runtimes of real-world benchmarks",
		Columns: []string{"Benchmark", "native (s)", "CRAC (s)", "overhead %", "CUDA calls", "CPS"},
	}
	for _, f := range streamFamilies(opt)[3:] { // HPGMG, HYPRE
		opt.logf("fig5b: %s", f.app.Name)
		med, res, err := measureModes([]Mode{ModeNative, ModeCRAC}, prop, f.app, f.cfg, iters)
		if err != nil {
			return nil, err
		}
		nat, cr := med[ModeNative], med[ModeCRAC]
		t.AddRow(f.app.Name, fmtF(nat, 3), fmtF(cr, 3), fmtF(overheadPct(cr, nat), 1),
			fmtCalls(res[ModeCRAC].Calls.TotalCUDACalls()), fmtCalls(uint64(res[ModeCRAC].CPS())))
	}
	return []*Table{t}, nil
}

func runFig5c(opt Options) ([]*Table, error) {
	prop := gpusim.TeslaV100()
	t := &Table{
		ID:    "fig5c",
		Title: "Checkpoint and restart times with image sizes (stream + real-world apps)",
		Columns: []string{"Benchmark", "checkpoint (s)", "restart (s)", "full replay (s)",
			"history / image log entries", "image size", "restart/ckpt"},
	}
	for _, f := range streamFamilies(opt) {
		opt.logf("fig5c: %s", f.app.Name)
		m, err := checkpointMidRun(prop, f.app, f.cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(f.app.Name, fmtF(m.ckpt.Seconds(), 3), fmtF(m.restart.Seconds(), 3), fmtF(m.replay.Seconds(), 3),
			m.entryCounts(), FmtBytes(uint64(m.imgSize)), fmtF(m.restartRatio(), 2))
	}
	t.Note("paper: HPGMG restart ≈1.75s dominated by CUDA API replay (the full-replay column); HYPRE image largest (2.3GB at 250³)")
	return []*Table{t}, nil
}
