package harness

import (
	"testing"

	"repro/internal/gpusim"
	"repro/internal/workloads"
	"repro/internal/workloads/hpgmg"
	"repro/internal/workloads/hypre"
	"repro/internal/workloads/lulesh"
	"repro/internal/workloads/rodinia"
	"repro/internal/workloads/streamapps"
)

// allApps returns every benchmark application with a CI-sized config.
func allApps() []struct {
	app *workloads.App
	cfg workloads.RunConfig
} {
	tiny := workloads.RunConfig{Scale: 0.12, Seed: 7}
	out := []struct {
		app *workloads.App
		cfg workloads.RunConfig
	}{}
	for _, a := range rodinia.AllApps() {
		out = append(out, struct {
			app *workloads.App
			cfg workloads.RunConfig
		}{a, tiny})
	}
	out = append(out,
		struct {
			app *workloads.App
			cfg workloads.RunConfig
		}{streamapps.SimpleStreams(), workloads.RunConfig{Scale: 0.12, Streams: 16, Reps: 2, Iters: 3, Seed: 7}},
		struct {
			app *workloads.App
			cfg workloads.RunConfig
		}{streamapps.UnifiedMemoryStreams(), workloads.RunConfig{Scale: 0.12, Streams: 16, Seed: 12701}},
		struct {
			app *workloads.App
			cfg workloads.RunConfig
		}{lulesh.App(), workloads.RunConfig{Scale: 0.3, Streams: 4, Seed: 7}},
		struct {
			app *workloads.App
			cfg workloads.RunConfig
		}{hpgmg.App(), workloads.RunConfig{Scale: 0.3, Seed: 7}},
		struct {
			app *workloads.App
			cfg workloads.RunConfig
		}{hypre.App(), workloads.RunConfig{Scale: 0.3, Streams: 2, Seed: 7}},
	)
	return out
}

// TestAppsNativeVsCRACChecksums verifies that every application computes
// bit-identical results natively and under CRAC — CRAC's transparency at
// runtime.
func TestAppsNativeVsCRACChecksums(t *testing.T) {
	prop := gpusim.TeslaV100()
	for _, tc := range allApps() {
		tc := tc
		t.Run(tc.app.Name, func(t *testing.T) {
			rn, err := runOnce(ModeNative, prop, tc.app, tc.cfg)
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			rc, err := runOnce(ModeCRAC, prop, tc.app, tc.cfg)
			if err != nil {
				t.Fatalf("CRAC: %v", err)
			}
			if rn.Checksum != rc.Checksum {
				t.Fatalf("checksum mismatch: native %v vs CRAC %v", rn.Checksum, rc.Checksum)
			}
			if rc.Calls.TotalCUDACalls() == 0 {
				t.Fatal("no CUDA calls counted")
			}
		})
	}
}

// TestAppsCheckpointRestartTransparency is DESIGN.md invariant 3: for
// every application, run-to-completion output equals the output of
// run→checkpoint→kill→restart→completion, with the checkpoint taken
// mid-run.
func TestAppsCheckpointRestartTransparency(t *testing.T) {
	prop := gpusim.TeslaV100()
	for _, tc := range allApps() {
		tc := tc
		t.Run(tc.app.Name, func(t *testing.T) {
			plain, err := runOnce(ModeCRAC, prop, tc.app, tc.cfg)
			if err != nil {
				t.Fatalf("uninterrupted: %v", err)
			}
			m, err := checkpointMidRun(prop, tc.app, tc.cfg)
			if err != nil {
				t.Fatalf("checkpointMidRun: %v", err)
			}
			if m.res.Checksum != plain.Checksum {
				t.Fatalf("transparency violated: %v (with ckpt+restart) vs %v (plain)",
					m.res.Checksum, plain.Checksum)
			}
		})
	}
}

// TestUVMFreeAppsUnderProxy runs the non-UVM applications under the
// proxy baseline and checks result equality — establishing that the
// Table 3 comparison is apples-to-apples.
func TestUVMFreeAppsUnderProxy(t *testing.T) {
	prop := gpusim.TeslaV100()
	tiny := workloads.RunConfig{Scale: 0.1, Seed: 7}
	for _, name := range []string{"BFS", "Hotspot", "Kmeans", "NW"} {
		app := rodinia.ByName(name)
		t.Run(name, func(t *testing.T) {
			rn, err := runOnce(ModeNative, prop, app, tiny)
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			rp, err := runOnce(ModeProxyCMA, prop, app, tiny)
			if err != nil {
				t.Fatalf("proxy: %v", err)
			}
			if rn.Checksum != rp.Checksum {
				t.Fatalf("checksum mismatch: native %v vs proxy %v", rn.Checksum, rp.Checksum)
			}
		})
	}
}

// TestFSGSBaseModeRuns exercises the FSGSBASE switcher end to end.
func TestFSGSBaseModeRuns(t *testing.T) {
	prop := gpusim.QuadroK600()
	app := rodinia.ByName("Hotspot")
	cfg := workloads.RunConfig{Scale: 0.1, Seed: 7}
	rn, err := runOnce(ModeNative, prop, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := runOnce(ModeCRACFSGSBase, prop, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rn.Checksum != rf.Checksum {
		t.Fatalf("checksum mismatch under FSGSBASE: %v vs %v", rn.Checksum, rf.Checksum)
	}
}

// TestModeStrings pins the mode labels used in tables.
func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeNative:       "native",
		ModeCRAC:         "CRAC",
		ModeCRACFSGSBase: "CRAC (FSGSBASE)",
		ModeProxyPipe:    "proxy (pipe IPC)",
		ModeProxyCMA:     "CMA/IPC",
	} {
		if m.String() != want {
			t.Fatalf("mode %d = %q", int(m), m.String())
		}
	}
}
