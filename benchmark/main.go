// Command benchmark is the repository's benchmark: four long workloads
// over the public checkpoint/restart surface, fourteen end-to-end
// metrics measured with every instrument off, and — in a separate
// traced run — a per-layer ledger measured from outside (returned
// Stats, timing decorators the benchmark owns, and probes that call
// the layers' exported functions on images the workload produced).
//
//	bash benchmark/run.sh --workload bulk_full --seed 1 --seconds 28 --trace 0
//
// The last line of standard output is one JSON object; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/spin"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	ops      int
	out      string
	repeat   int
	smoke    bool
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "bulk_full, replay_churn, sparse_chain or fleet_http")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 28, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, prints the per-layer metrics instead")
	flag.IntVar(&o.ops, "ops", 0, "run this many iterations instead of -seconds (tests, exact-count comparison)")
	flag.StringVar(&o.out, "out", "", "traced run: Chrome trace-event JSON file (default: a temp dir)")
	flag.IntVar(&o.repeat, "repeat", 0, "run every workload this many times in fresh processes and report the spread")
	flag.BoolVar(&o.smoke, "smoke", false, "a few iterations per workload, one set-up, small probe buffers: does everything still run")
	flag.Parse()
	steadySpin()

	if o.repeat > 0 {
		if err := repeatMode(o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := registry[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := runOnce(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// A run sets the workload up again and again, at least setupRuns times
// and until setupSpan has passed, so that set-up time is measured over
// a stretch long enough to have seen the machine at its fast clock;
// setup_s is the best median of three consecutive set-ups. The traced
// run reports no set-up time and sets up once.
const (
	setupRuns = 9
	setupSpan = 2 * time.Second
)

func runOnce(o options) (*result, error) {
	clients := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(clients)
	fmt.Printf("env: a modelled 100 µs delay takes %.1f µs in this process\n", 100*spinCalibration())
	tmp, err := os.MkdirTemp("", "cracbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{ctx: context.Background(), tmp: tmp, seed: o.seed, clients: clients, traced: o.trace != 0,
		bigBytes: floorBytes}
	n := setupRuns
	if o.smoke {
		o.ops = registry[o.workload].smokeOps
		if e.traced {
			o.ops *= 6 // the untraced sixth must still reach a restart
		}
		e.bigBytes = 1 << 20
	}
	if o.smoke || e.traced {
		n = 1
	}
	printEnv(o, clients)

	w := registry[o.workload].new()
	defer w.close()
	var setups []float64
	for start := time.Now(); len(setups) < n || (n > 1 && time.Since(start) < setupSpan); {
		if len(setups) > 0 {
			w.close()
		}
		// Every set-up starts from memory handed back to the system, as
		// the first one does; otherwise some of them reuse warm heap
		// and some fault theirs in, and the median flips between the two.
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		e.setups++
	}

	// One cycle of the workload before anything is measured: the first
	// operations pay for connections, first generations, heap growth and
	// cold files (fleet_http's first 0.4 s ran at twice the latency of
	// the rest and moved its p90 by itself).
	if !o.smoke {
		if _, err := w.run(e, &budget{iters: registry[o.workload].warmOps}); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", o.workload, err)
		}
	}

	var res *result
	if e.traced {
		res, err = tracedRun(o, e, w)
	} else {
		res, err = plainRun(o, e, w, bestBatch(setups, 3, 0.5, false))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}

// phase runs the workload against one budget and reports the merged
// samples with the process costs of exactly that window.
type phaseResult struct {
	rec  *recorder
	wall time.Duration
	proc procCosts
}

func runPhase(e *env, w workload, dur time.Duration, iters int) (*phaseResult, error) {
	runtime.GC()
	before := readProc()
	b := &budget{start: time.Now(), dur: dur, iters: iters}
	recs, err := w.run(e, b)
	if err != nil {
		return nil, err
	}
	wall := time.Since(b.start)
	after := readProc()
	rec := &recorder{}
	for _, r := range recs {
		rec.merge(r)
	}
	if rec.ckpts == 0 || len(rec.restartMs) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the phase was too short to complete both a checkpoint and a restart; their metrics read 0")
	}
	return &phaseResult{rec: rec, wall: wall, proc: after.sub(before)}, nil
}

// plainRun is the untraced run: every end-to-end metric, nothing
// wrapped around the stores, no spans.
func plainRun(o options, e *env, w workload, setupS float64) (*result, error) {
	ph, err := runPhase(e, w, time.Duration(o.seconds*float64(time.Second)), o.ops)
	if err != nil {
		return nil, err
	}
	held, live, err := w.stored(e)
	if err != nil {
		return nil, err
	}
	r := ph.rec
	// Maintenance a workload ran inline (sparse_chain's compactions) is
	// not an op: its wall, CPU and allocation stay out of the per-op
	// figures. See recorder.maintain.
	wall := ph.wall - r.maintWall
	proc := ph.proc.sub(r.maint)
	fmt.Printf("samples: %d checkpoints (%d in the latency population), %d restarts, %d app rounds in %.2fs; maintenance took %.2fs of it and allocated %.0f MiB\n",
		r.ckpts, len(r.ckptMs), len(r.restartMs), len(r.appCallNs), ph.wall.Seconds(),
		r.maintWall.Seconds(), float64(r.maint.allocBytes)/mib)
	fmt.Printf("percentile rule: %d checkpoint samples support p%g, %d restart samples support p%g\n",
		len(r.ckptMs), tailPercentile(len(r.ckptMs)), len(r.restartMs), tailPercentile(len(r.restartMs)))
	gib := float64(r.ckptBytes+r.restartBytes) / (1 << 30)
	vals := map[string]float64{
		"setup_s":                    setupS,
		"ckpt_ms_p50":                quietMedian(r.ckptMs, false),
		"ckpt_ms_p90":                quietQuantile(r.ckptMs, 0.90, false),
		"ckpt_mb_per_s":              quietMedian(r.ckptRate, true),
		"pause_ms_p50":               quietMedian(r.pauseMs, false),
		"restart_ms_p50":             quietMedian(r.restartMs, false),
		"restart_ms_p90":             quietQuantile(r.restartMs, 0.90, false),
		"restart_mb_per_s":           quietMedian(r.restartRate, true),
		"ttfk_ms_p50":                quietMedian(r.ttfkMs, false),
		"app_call_ns":                quietMedian(r.appCallNs, false),
		"ops_per_s":                  ratio(float64(r.ops-r.failed), wall.Seconds()),
		"stored_bytes_per_live_byte": ratio(float64(held), float64(live)),
		"cpu_s_per_gb":               ratio(proc.user+proc.sys, gib),
		"alloc_mb_per_op":            ratio(float64(proc.allocBytes)/mib, float64(r.ops)),
	}
	return &result{Attempted: r.ops, Failed: r.failed, Metrics: pick(endToEnd, vals)}, nil
}

// pick turns computed values into the declared metric set, in the
// declared units. A value nobody computed is a bug, not a zero.
func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			panic("benchmark: no value computed for declared metric " + d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// tracedRun measures the workload twice in one process — a sixth of
// the time with the timed stores switched off, a third with them on
// and spans recorded — then runs the probe suite on what the workload
// left behind.
func tracedRun(o options, e *env, w workload) (*result, error) {
	total := time.Duration(o.seconds * float64(time.Second))
	w.arm(false)
	plain, err := runPhase(e, w, total/6, (o.ops+5)/6)
	if err != nil {
		return nil, err
	}
	w.arm(true)
	e.tr = newTracer()
	traced, err := runPhase(e, w, total/3, (o.ops+2)/3)
	if err != nil {
		return nil, err
	}
	w.arm(false)
	tr := e.tr
	e.tr = nil

	r := traced.rec
	top, bottom := w.layers()
	rows, coverage := selfTimes(tr.spans, "ckpt", "restart")
	vals := map[string]float64{
		"cracplugin.hook_ms":            median(r.hookMs),
		"dmtcp.write_ns_per_byte":       ratio(float64(r.writeDur), float64(r.payloadWritten)),
		"dmtcp.shards_written_per_ckpt": ratio(float64(r.shardsWritten), float64(r.ckpts)),
		"dmtcp.payload_written_ratio":   ratio(float64(r.payloadWritten), float64(r.ckptBytes)),
		"session.pause_ms_p99":          quantile(r.pauseMs, 0.99),
		"session.ckpt_ms_p99":           quantile(r.ckptMs, 0.99),
		"session.ckpt_wait_ms_p50":      median(r.waitMs),
		"session.ckpt_wait_ms_p99":      quantile(r.waitMs, 0.99),

		"store.put_write_ns_per_byte": ratio(float64(bottom.putWrite), float64(bottom.bytesPut)),
		"store.put_commit_ms":         ratio(msOf(bottom.putWall-bottom.putCallback), float64(bottom.puts)),
		"store.read_ns_per_byte":      ratio(float64(bottom.getWall), float64(bottom.bytesGot)),
		"store.getat_reads":           float64(top.reads),
		"store.getat_bytes":           float64(top.getAtBytes),
		"store.puts":                  float64(bottom.puts),
		"store.bytes_put":             float64(bottom.bytesPut),

		"proc.allocs_per_op":     ratio(float64(traced.proc.mallocs), float64(r.ops)),
		"proc.gc_cycles":         float64(traced.proc.gcCycles),
		"proc.gc_pause_ms_total": float64(traced.proc.gcPauseNs) / 1e6,
		"proc.peak_rss_mb":       peakRSSMiB(),
		"proc.cpu_user_s":        traced.proc.user,
		"proc.cpu_sys_s":         traced.proc.sys,

		// Mean wall of a checkpoint-or-restart call, traced against
		// untraced, in the same process on the same state.
		"trace.overhead_pct": 100 * (ratio(
			ratio(float64(r.opWall()), float64(r.ops)),
			ratio(float64(plain.rec.opWall()), float64(plain.rec.ops))) - 1),
		"trace.coverage_pct":   coverage,
		"trace.ttfk_delta_pct": 100 * (ratio(median(r.ttfkMs), median(plain.rec.ttfkMs)) - 1),
	}
	if err := runProbes(e, w, vals); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	printLayerTable(os.Stderr, rows)
	out := o.out
	if out == "" {
		out = filepath.Join(os.TempDir(), fmt.Sprintf("cracbench-trace-%s-%d.json", o.workload, o.seed))
	}
	if err := writeChromeTrace(out, tr.spans); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), out)
	return &result{Attempted: plain.rec.ops + r.ops, Failed: plain.rec.failed + r.failed,
		Metrics: pick(perLayer, vals)}, nil
}

// procCosts is the process-wide cost counters at one instant, or the
// difference between two instants.
type procCosts struct {
	user, sys  float64 // CPU seconds
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func readProc() procCosts {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with valid arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procCosts{user: tv(ru.Utime), sys: tv(ru.Stime), allocBytes: ms.TotalAlloc,
		mallocs: ms.Mallocs, gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs}
}

func (a procCosts) add(b procCosts) procCosts {
	return procCosts{user: a.user + b.user, sys: a.sys + b.sys,
		allocBytes: a.allocBytes + b.allocBytes, mallocs: a.mallocs + b.mallocs,
		gcCycles: a.gcCycles + b.gcCycles, gcPauseNs: a.gcPauseNs + b.gcPauseNs}
}

func (a procCosts) sub(b procCosts) procCosts {
	return procCosts{user: a.user - b.user, sys: a.sys - b.sys,
		allocBytes: a.allocBytes - b.allocBytes, mallocs: a.mallocs - b.mallocs,
		gcCycles: a.gcCycles - b.gcCycles, gcPauseNs: a.gcPauseNs - b.gcPauseNs}
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// printEnv states what the numbers were measured on.
func printEnv(o options, clients int) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("benchmark: workload=%s seed=%d seconds=%g ops=%d trace=%d\n", o.workload, o.seed, o.seconds, o.ops, o.trace)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d clients=%d (closed loop) %s cpu=%q llc=%s commit=%s\n",
		runtime.NumCPU(), clients, clients, runtime.Version(), cpu, llcSize(), commit)
	fmt.Printf("env: DirStores live under %s with the default flush policy (fsync on)\n", os.TempDir())
}

// llcSize reads the last-level cache size of CPU 0 from sysfs.
func llcSize() string {
	size := "unknown"
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		size = strings.TrimSpace(string(data))
	}
	return size
}

// spinCalibration reports how long a modelled 100 µs delay takes when
// the machine is at its fast clock (the shortest of a tenth of a
// second's probes), as a share of 100 µs. internal/spin calibrates once
// per process from one ~80 µs probe, and every modelled latency of the
// simulated CUDA library (fs switch, cudaMalloc, launch) scales with
// the result: a probe taken at the slow clock shortens all of them, by
// a third on the sizing box, for the life of the process.
func spinCalibration() float64 {
	iters := spin.Iters(100_000)
	best := time.Hour
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
		t0 := time.Now()
		spin.ForIters(iters)
		best = min(best, time.Since(t0))
	}
	return float64(best) / 100e3
}

// steadySpin keeps that artifact of the simulation out of the numbers:
// it runs the CPU warm, lets the program calibrate, checks the result
// against the wall clock, and starts the process over (the same
// arguments, no child) when it is more than 3% short. See README.md,
// open findings; the fix belongs in internal/spin.
func steadySpin() {
	const envKey, maxTries = "CRACBENCH_SPIN_TRY", 12
	for t0 := time.Now(); time.Since(t0) < 20*time.Millisecond; {
	}
	try, _ := strconv.Atoi(os.Getenv(envKey))
	if spinCalibration() >= 0.97 || try >= maxTries {
		return
	}
	self, err := os.Executable()
	if err != nil {
		return
	}
	os.Setenv(envKey, strconv.Itoa(try+1))
	// On success Exec does not return; on failure the run goes on with
	// the calibration it has, which the env line states.
	_ = syscall.Exec(self, os.Args, os.Environ())
}
