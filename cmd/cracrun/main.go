// Command cracrun runs one of the paper's benchmark applications under a
// chosen runtime binding, optionally checkpointing mid-run into an image
// store and restarting from it (the cracrun/cracrestart flow of a real
// CRAC deployment, collapsed into one process for the simulated
// substrate).
//
// Usage:
//
//	cracrun -list
//	cracrun -app Hotspot -mode crac -scale 0.5
//	cracrun -app LULESH -mode crac -ckpt-dir ckpts/ -ckpt-step 50
//	cracrun -app Hotspot -mode crac -ckpt-dir ckpts/ -keep 3 -ckpt-step 2
//	cracrun -app LULESH -ckpt-dir ckpts/ -incremental 8   # delta chain, base every 9th
//	cracrun -app BFS -mode native
//	cracrun -app UnifiedMemoryStreams -mode proxy-pipe   # CRUM-style baseline
//	cracrun -app Hotspot -ckpt-dir ckpts/ -timeout 30s   # deadline-bounded checkpoint
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	crac "repro"
	"repro/internal/gpusim"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/hpgmg"
	"repro/internal/workloads/hypre"
	"repro/internal/workloads/lulesh"
	"repro/internal/workloads/rodinia"
	"repro/internal/workloads/streamapps"
)

func apps() []*workloads.App {
	out := rodinia.AllApps()
	out = append(out, streamapps.SimpleStreams(), streamapps.UnifiedMemoryStreams(),
		lulesh.App(), hpgmg.App(), hypre.App())
	return out
}

func findApp(name string) *workloads.App {
	for _, a := range apps() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func parseMode(s string) (harness.Mode, error) {
	switch s {
	case "native":
		return harness.ModeNative, nil
	case "crac":
		return harness.ModeCRAC, nil
	case "crac-fsgsbase":
		return harness.ModeCRACFSGSBase, nil
	case "proxy-pipe":
		return harness.ModeProxyPipe, nil
	case "proxy-cma":
		return harness.ModeProxyCMA, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (native, crac, crac-fsgsbase, proxy-pipe, proxy-cma)", s)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind main, split out so tests can drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cracrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName  = fs.String("app", "", "application name (see -list)")
		list     = fs.Bool("list", false, "list applications and exit")
		modeStr  = fs.String("mode", "crac", "runtime binding: native, crac, crac-fsgsbase, proxy-pipe, proxy-cma")
		scale    = fs.Float64("scale", 1.0, "workload scale factor")
		streams  = fs.Int("streams", 0, "stream count override (0 = app default)")
		seed     = fs.Int64("seed", 7, "workload seed")
		device   = fs.String("device", "v100", "simulated device: v100 or k600")
		ckptDir  = fs.String("ckpt-dir", "", "checkpoint mid-run into this directory, one image per generation (crac modes only)")
		keep     = fs.Int("keep", 0, "with -ckpt-dir: retain only the newest N images (0 = all)")
		ckptStep = fs.Int("ckpt-step", 1, "hook step at which to checkpoint")
		restart  = fs.Bool("restart", true, "restart from the image immediately after checkpointing")
		timeout  = fs.Duration("timeout", 0, "checkpoint/restart deadline (0 = none)")
		incr     = fs.Int("incremental", 0, "incremental checkpointing: up to N delta images per full base (requires -ckpt-dir; 0 = off)")
		lazy     = fs.Bool("lazy", false, "lazy on-demand restart: resume execution after metadata + the active-set rebuild, fault shards in on access, drain in the background (reports time-to-first-kernel)")
		profile  = fs.Bool("profile", false, "print an nvprof-style per-API call summary")
		verify   = fs.Bool("verify", false, "verify each checkpoint's chain end to end after it commits")
		scrub    = fs.Bool("scrub", false, "scrub the store before running: quarantine corrupt images and condemned deltas")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "Applications:")
		for _, a := range apps() {
			fmt.Fprintf(stdout, "  %-22s %s\n", a.Name, a.Char.Description)
			fmt.Fprintf(stdout, "  %-22s paper args: %s\n", "", a.PaperArgs)
		}
		return 0
	}
	app := findApp(*appName)
	if app == nil {
		fmt.Fprintf(stderr, "cracrun: unknown app %q (use -list)\n", *appName)
		return 2
	}
	mode, err := parseMode(*modeStr)
	if err != nil {
		fmt.Fprintln(stderr, "cracrun:", err)
		return 2
	}
	prop := gpusim.TeslaV100()
	if *device == "k600" {
		prop = gpusim.QuadroK600()
	}

	if *lazy && !*restart {
		fmt.Fprintln(stderr, "cracrun: -lazy requires -restart")
		return 2
	}
	var sessionOpts []crac.Option
	if *incr > 0 {
		// A delta names its parent image in the store it is written to.
		if *ckptDir == "" {
			fmt.Fprintln(stderr, "cracrun: -incremental requires -ckpt-dir")
			return 2
		}
		sessionOpts = append(sessionOpts, crac.WithIncremental(*incr))
	}
	runner, err := harness.NewRunner(mode, prop, sessionOpts...)
	if err != nil {
		fmt.Fprintln(stderr, "cracrun:", err)
		return 1
	}
	defer runner.Close()

	cfg := workloads.RunConfig{Scale: *scale, Streams: *streams, Seed: *seed}
	var lastCkpt string
	var store crac.Store
	var lazyPending *crac.Restarting
	var lazyRestartAt time.Time
	lazyTTFKReported := true
	if *ckptDir != "" {
		if runner.Session == nil {
			fmt.Fprintln(stderr, "cracrun: -ckpt-dir requires a crac mode")
			return 2
		}
		store, err = crac.NewDirStore(*ckptDir, *keep)
		if err != nil {
			fmt.Fprintln(stderr, "cracrun:", err)
			return 1
		}
		if *scrub {
			rep, err := crac.Scrub(context.Background(), store)
			if err != nil {
				fmt.Fprintln(stderr, "cracrun: scrub:", err)
				return 1
			}
			fmt.Fprintf(stdout, "scrub: %d intact, %d corrupt, %d condemned, %d quarantined\n",
				len(rep.Intact), len(rep.Corrupt), len(rep.Condemned), len(rep.Quarantined))
			for _, issue := range rep.Corrupt {
				fmt.Fprintf(stdout, "scrub: corrupt %s: %v\n", issue.Name, issue.Err)
			}
			for _, name := range rep.Condemned {
				fmt.Fprintf(stdout, "scrub: condemned %s (broken ancestry)\n", name)
			}
		}
		step := 0
		cfg.Hook = func(int) error {
			step++
			if !lazyTTFKReported {
				// The first hook step after a lazy restart: the app has run
				// real kernels against faulted-in memory by now.
				lazyTTFKReported = true
				fmt.Fprintf(stdout, "restart: time-to-first-kernel %v (first app step completed after lazy restart)\n",
					time.Since(lazyRestartAt).Round(time.Microsecond))
			}
			if *incr > 0 {
				// Incremental mode checkpoints repeatedly — every
				// ckpt-step hook steps — growing a base+delta chain.
				if *ckptStep <= 0 || step%*ckptStep != 0 {
					return nil
				}
			} else if step != *ckptStep {
				return nil
			}
			ctx := context.Background()
			if *timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, *timeout)
				defer cancel()
			}
			name := nextGenName(ctx, store)
			t0 := time.Now()
			st, err := runner.Session.CheckpointTo(ctx, store, name)
			if err != nil {
				return err
			}
			// The application-visible pause is just the drain +
			// copy-on-write arming, far below the total.
			pause := st.PauseDuration.Round(time.Microsecond)
			if st.Delta {
				fmt.Fprintf(stdout, "checkpoint: %s delta (depth %d, %.1f%% dirty: %s of %s payload) in %v (paused %v)\n",
					name, st.DeltaDepth, 100*st.DirtyRatio(),
					harness.FmtBytes(st.PayloadWritten), harness.FmtBytes(st.PayloadTotal),
					time.Since(t0).Round(time.Millisecond), pause)
			} else {
				fmt.Fprintf(stdout, "checkpoint: %s (%d regions, %s payload) in %v (paused %v)\n",
					name, st.Regions, harness.FmtBytes(st.PayloadTotal),
					time.Since(t0).Round(time.Millisecond), pause)
			}
			if *verify {
				chain, verr := crac.VerifyChain(ctx, store, name)
				if verr != nil {
					return fmt.Errorf("verifying checkpoint %s: %w", name, verr)
				}
				fmt.Fprintf(stdout, "verify: %s OK (%d chain member(s))\n", name, len(chain))
			}
			// In incremental mode a mid-run restart would break the chain
			// (the next checkpoint becomes a base), so -restart instead
			// restores the chain tip once, after the run completes.
			if *restart && *incr == 0 {
				t0 = time.Now()
				if *lazy {
					p, err := runner.Session.RestartAsync(ctx, store, name)
					if err != nil {
						return err
					}
					lazyPending, lazyRestartAt, lazyTTFKReported = p, t0, false
					fmt.Fprintf(stdout, "restart: lazy, executing after %v visible pause (generation %d); image draining in the background\n",
						time.Since(t0).Round(time.Microsecond), runner.Session.Generation())
				} else {
					if err := runner.Session.RestartFrom(ctx, store, name); err != nil {
						return err
					}
					fmt.Fprintf(stdout, "restart: completed in %v (generation %d)\n",
						time.Since(t0).Round(time.Millisecond), runner.Session.Generation())
				}
			}
			lastCkpt = name
			return nil
		}
	}

	rt := runner.RT
	var prof *trace.Profiler
	if *profile {
		prof = trace.New(rt)
		rt = prof
	}
	res, err := app.Run(rt, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "cracrun: %s under %v: %v\n", app.Name, mode, err)
		return 1
	}
	if lazyPending != nil {
		st, werr := lazyPending.Wait()
		if werr != nil {
			fmt.Fprintf(stderr, "cracrun: background drain: %v\n", werr)
		} else {
			untouched := 0
			if lib := runner.Session.Library(); lib != nil {
				untouched = lib.UVM().UntouchedHostPages()
			}
			fmt.Fprintf(stdout, "restart: background drain finished in %v (visible %v, total %v); %d managed pages still cold (host-resident, never touched)\n",
				st.RestoreBackgroundDuration.Round(time.Microsecond),
				st.RestoreVisibleDuration.Round(time.Microsecond),
				st.RestoreDuration.Round(time.Microsecond), untouched)
		}
	}
	if *incr > 0 && *restart && lastCkpt != "" {
		// Prove the chain tip restores: base + deltas materialize
		// through the store, under the same deadline as any other
		// checkpoint/restart operation.
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		t0 := time.Now()
		if *lazy {
			p, err := runner.Session.RestartAsync(ctx, store, lastCkpt)
			if err != nil {
				fmt.Fprintf(stderr, "cracrun: restoring chain tip %s: %v\n", lastCkpt, err)
				return 1
			}
			fmt.Fprintf(stdout, "restart: chain tip %s lazily restored, executing after %v visible pause (generation %d)\n",
				lastCkpt, time.Since(t0).Round(time.Microsecond), runner.Session.Generation())
			if st, werr := p.Wait(); werr != nil {
				fmt.Fprintf(stderr, "cracrun: background drain: %v\n", werr)
			} else {
				fmt.Fprintf(stdout, "restart: background drain finished in %v (total %v)\n",
					st.RestoreBackgroundDuration.Round(time.Microsecond), st.RestoreDuration.Round(time.Microsecond))
			}
		} else {
			if err := runner.Session.RestartFrom(ctx, store, lastCkpt); err != nil {
				fmt.Fprintf(stderr, "cracrun: restoring chain tip %s: %v\n", lastCkpt, err)
				return 1
			}
			fmt.Fprintf(stdout, "restart: chain tip %s restored in %v (generation %d)\n",
				lastCkpt, time.Since(t0).Round(time.Millisecond), runner.Session.Generation())
		}
	}
	fmt.Fprintf(stdout, "%s under %v:\n", app.Name, mode)
	fmt.Fprintf(stdout, "  runtime:    %v\n", res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  CUDA calls: %d (CPS %.0f, per the paper's Eq. 2)\n",
		res.Calls.TotalCUDACalls(), res.CPS())
	fmt.Fprintf(stdout, "  checksum:   %v\n", res.Checksum)
	for k, v := range res.Detail {
		fmt.Fprintf(stdout, "  %s: %.3f\n", k, v)
	}
	if prof != nil {
		fmt.Fprintln(stdout)
		prof.Fprint(stdout)
	}
	return 0
}

// nextGenName picks the first unused genNNN name in the store, so
// repeated runs against the same -ckpt-dir accumulate generations
// instead of overwriting gen000 (retention via -keep then applies).
func nextGenName(ctx context.Context, store crac.Store) string {
	names, err := store.List(ctx)
	if err != nil {
		return "gen000"
	}
	taken := make(map[string]bool, len(names))
	for _, n := range names {
		taken[n] = true
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("gen%03d", i)
		if !taken[name] {
			return name
		}
	}
}
