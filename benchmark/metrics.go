package main

import (
	"math"
	"sort"
	"time"

	crac "repro"
)

// metricDef names one reported number. BENCHMARK.json declares the same
// names, units and directions; benchmark_test.go holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; see README.md for the definitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ckpt_ms_p50", "ms", "lower"},
	{"ckpt_ms_p90", "ms", "lower"},
	{"ckpt_mb_per_s", "MiB/s", "higher"},
	{"pause_ms_p50", "ms", "lower"},
	{"restart_ms_p50", "ms", "lower"},
	{"restart_ms_p90", "ms", "lower"},
	{"restart_mb_per_s", "MiB/s", "higher"},
	{"ttfk_ms_p50", "ms", "lower"},
	{"app_call_ns", "ns", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"stored_bytes_per_live_byte", "ratio", "lower"},
	{"cpu_s_per_gb", "s/GiB", "lower"},
	{"alloc_mb_per_op", "MiB", "lower"},
}

// perLayer is the layer ledger of the traced run, layer = module name.
// "loop" rows come from the traced third of the workload (returned
// Stats and the timed stores); "probe" rows from the probe suite run
// once after it.
var perLayer = []metricDef{
	// loop: values the public calls return
	{"cracplugin.hook_ms", "ms", "lower"},
	{"dmtcp.write_ns_per_byte", "ns/B", "lower"},
	{"dmtcp.shards_written_per_ckpt", "count", "lower"},
	{"dmtcp.payload_written_ratio", "ratio", "lower"},
	{"session.pause_ms_p99", "ms", "lower"},
	{"session.ckpt_ms_p99", "ms", "lower"},
	{"session.ckpt_wait_ms_p50", "ms", "lower"},
	{"session.ckpt_wait_ms_p99", "ms", "lower"},
	// loop: the timed stores
	{"store.put_write_ns_per_byte", "ns/B", "lower"},
	{"store.put_commit_ms", "ms", "lower"},
	{"store.read_ns_per_byte", "ns/B", "lower"},
	{"store.getat_reads", "count", "lower"},
	{"store.getat_bytes", "count", "lower"},
	{"store.puts", "count", "lower"},
	{"store.bytes_put", "count", "lower"},
	// loop: the process
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms_total", "ms", "lower"},
	{"proc.peak_rss_mb", "MiB", "lower"},
	{"proc.cpu_user_s", "s", "lower"},
	{"proc.cpu_sys_s", "s", "lower"},
	// loop: the instrument itself
	{"trace.overhead_pct", "%", "lower"},
	{"trace.coverage_pct", "%", "higher"},
	{"trace.ttfk_delta_pct", "%", "lower"},
	// probes on the workload's last image
	{"replaylog.entries", "count", "lower"},
	{"replaylog.append_ns", "ns", "lower"},
	{"replaylog.encode_ns_per_entry", "ns", "lower"},
	{"replaylog.decode_ns_per_entry", "ns", "lower"},
	{"replaylog.active_ns_per_entry", "ns", "lower"},
	{"cracplugin.replay_us_per_entry", "us", "lower"},
	{"dmtcp.read_ns_per_byte", "ns/B", "lower"},
	{"dmtcp.index_scan_us", "us", "lower"},
	{"cas.chunk_ns_per_byte", "ns/B", "lower"},
	{"cas.manifest_decode_us", "us", "lower"},
	{"addrspace.snapshot_arm_us", "us", "lower"},
	{"addrspace.view_read_ns_per_byte", "ns/B", "lower"},
	{"addrspace.dirty_scan_us", "us", "lower"},
	{"addrspace.retained_pages_peak", "count", "lower"},
	// probes on the fixed probe session (the same in every workload)
	{"cracrt.call_ns", "ns", "lower"},
	{"cracrt.native_call_ns", "ns", "lower"},
	{"fsgs.fsgsbase_call_ns", "ns", "lower"},
	{"session.new_ms", "ms", "lower"},
	{"session.fixed_ckpt_us", "us", "lower"},
	{"session.fixed_restart_us", "us", "lower"},
	{"dmtcp.lazy_visible_ms", "ms", "lower"},
	{"dmtcp.lazy_background_ms", "ms", "lower"},
	{"cas.self_ms_per_put", "ms", "lower"},
	{"cas.reassemble_ns_per_byte", "ns/B", "lower"},
	{"cas.chunks_put_per_ckpt", "count", "lower"},
	{"cas.chunks_skipped_per_ckpt", "count", "higher"},
	{"cas.dedup_ratio", "ratio", "higher"},
	{"cas.gc_ms", "ms", "lower"},
	{"compact.ms", "ms", "lower"},
	{"compact.bytes_rewritten", "count", "lower"},
	{"netstore.put_rtt_us", "us", "lower"},
	{"netstore.put_ns_per_byte", "ns/B", "lower"},
	{"netstore.get_ns_per_byte", "ns/B", "lower"},
	{"netstore.exists_batch_us", "us", "lower"},
	{"pool.open_ms", "ms", "lower"},
	{"pool.queue_wait_ms_p50", "ms", "lower"},
	{"pool.queue_wait_ms_p99", "ms", "lower"},
	{"pool.reserved_page_peak", "count", "lower"},
	{"pool.rejections", "count", "lower"},
	// floors: what each ns/B row above is quoted against
	{"floor.memcpy_ns_per_byte", "ns/B", "lower"},
	{"floor.crc32c_ns_per_byte", "ns/B", "lower"},
	{"floor.sha256_ns_per_byte", "ns/B", "lower"},
	{"floor.fnv1a_ns_per_byte", "ns/B", "lower"},
	{"floor.file_fsync_ns_per_byte", "ns/B", "lower"},
}

// quantile is the nearest-rank quantile of an unsorted sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietQuantile is quantile q of the run's quietest stretch: the
// samples, in the order they were taken, are cut into batches long
// enough to leave sixteen samples beyond the quantile (32 for a median,
// 160 for a p90), and the best batch's quantile is reported — the
// lowest, or the highest when higher is better. The machine the
// benchmark runs on clocks its cores between two speeds a factor of
// 1.38 apart, for tenths of a second at a time and for a share of the
// run that swings between a tenth and nine tenths (README.md, "The
// machine"). A quantile over the whole run reads one speed or the other
// depending on which had the majority; the quietest stretch reads the
// fast one as long as the run saw it at all. Fewer than two batches'
// worth of samples are one batch: the plain quantile.
func quietQuantile(xs []float64, q float64, higherIsBetter bool) float64 {
	return bestBatch(xs, int(math.Round(16/(1-q))), q, higherIsBetter)
}

func quietMedian(xs []float64, higherIsBetter bool) float64 {
	return quietQuantile(xs, 0.5, higherIsBetter)
}

// bestBatch cuts xs into len(xs)/batch consecutive batches (at least
// one) and returns the best of their quantiles q.
func bestBatch(xs []float64, batch int, q float64, higherIsBetter bool) float64 {
	k := max(1, len(xs)/batch)
	best := 0.0
	for i := 0; i < k; i++ {
		v := quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
		if i == 0 || (v < best) != higherIsBetter {
			best = v
		}
	}
	return best
}

// tailPercentile is the reporting rule for timings: the highest of the
// usual percentiles that still has at least ten samples beyond it.
// Below twenty samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []struct {
		pct    float64
		beyond int // samples beyond it, per thousand
	}{{75, 250}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}} {
		if n*p.beyond/1000 >= 10 {
			best = p.pct
		}
	}
	return best
}

// recorder holds the samples of one client. Clients never share one;
// merge folds them together once the loop is over.
type recorder struct {
	ops, failed int

	ckptMs    []float64 // latency population (delta checkpoints only where a workload writes deltas)
	pauseMs   []float64
	restartMs []float64
	ttfkMs    []float64
	appCallNs []float64 // per app round: wall / calls
	waitMs    []float64 // checkpoint wall minus the Stats.Duration it returned

	ckpts        int
	ckptWall     time.Duration
	ckptBytes    uint64
	ckptRate     []float64 // MiB/s of each checkpoint, bases included
	restartWall  time.Duration
	restartBytes uint64
	restartRate  []float64

	hookMs         []float64
	writeDur       time.Duration
	payloadWritten uint64
	shardsWritten  int

	maintWall time.Duration // inside maintain
	maint     procCosts
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// payload is the checkpointed state's size: v3 images report it
// directly, v2 images as region plus section bytes.
func payload(st crac.Stats) uint64 {
	if st.PayloadTotal > 0 {
		return st.PayloadTotal
	}
	return st.RegionBytes + st.SectionBytes
}

// checkpoint records one committed checkpoint. latency says whether it
// belongs to the latency population.
func (r *recorder) checkpoint(st crac.Stats, wall time.Duration, latency bool) {
	r.ops++
	r.ckpts++
	r.ckptWall += wall
	r.ckptBytes += payload(st)
	r.ckptRate = append(r.ckptRate, float64(payload(st))/mib/wall.Seconds())
	if latency {
		r.ckptMs = append(r.ckptMs, msOf(wall))
		r.pauseMs = append(r.pauseMs, msOf(st.PauseDuration))
		r.waitMs = append(r.waitMs, msOf(wall-st.Duration))
	}
	r.hookMs = append(r.hookMs, msOf(st.HookDuration))
	r.writeDur += st.WriteDuration
	if st.ShardsTotal > 0 {
		r.payloadWritten += st.PayloadWritten
		r.shardsWritten += st.ShardsWritten
	} else {
		r.payloadWritten += payload(st)
	}
}

// restart records one completed restart of an image holding bytes of
// payload: wall until memory is whole, ttfk until the first kernel ran.
func (r *recorder) restart(bytes uint64, wall, ttfk time.Duration) {
	r.ops++
	r.restartWall += wall
	r.restartBytes += bytes
	r.restartRate = append(r.restartRate, float64(bytes)/mib/wall.Seconds())
	r.restartMs = append(r.restartMs, msOf(wall))
	r.ttfkMs = append(r.ttfkMs, msOf(ttfk))
}

// maintain runs maintenance that is no op of the workload — a compaction
// and the chunk collection after it — and keeps its wall time, CPU and
// allocation apart, so the per-op figures of a run do not move with how
// many of them happened to fall inside it. It is called between ops of a
// single client, never concurrently.
func (r *recorder) maintain(f func() error) error {
	before, t0 := readProc(), time.Now()
	err := f()
	r.maintWall += time.Since(t0)
	r.maint = r.maint.add(readProc().sub(before))
	return err
}

// fail counts an op that errored, was refused, or failed the content
// check. It has no latency sample: a failed op misses every figure.
func (r *recorder) fail() {
	r.ops++
	r.failed++
}

func (r *recorder) merge(o *recorder) {
	r.ops += o.ops
	r.failed += o.failed
	r.ckptMs = append(r.ckptMs, o.ckptMs...)
	r.pauseMs = append(r.pauseMs, o.pauseMs...)
	r.restartMs = append(r.restartMs, o.restartMs...)
	r.ttfkMs = append(r.ttfkMs, o.ttfkMs...)
	r.appCallNs = append(r.appCallNs, o.appCallNs...)
	r.waitMs = append(r.waitMs, o.waitMs...)
	r.ckpts += o.ckpts
	r.ckptWall += o.ckptWall
	r.ckptBytes += o.ckptBytes
	r.ckptRate = append(r.ckptRate, o.ckptRate...)
	r.restartRate = append(r.restartRate, o.restartRate...)
	r.restartWall += o.restartWall
	r.restartBytes += o.restartBytes
	r.hookMs = append(r.hookMs, o.hookMs...)
	r.writeDur += o.writeDur
	r.payloadWritten += o.payloadWritten
	r.shardsWritten += o.shardsWritten
	r.maintWall += o.maintWall
	r.maint = r.maint.add(o.maint)
}

// opWall is the time spent inside checkpoint and restart calls, the
// quantity the traced and untraced phases are compared on.
func (r *recorder) opWall() time.Duration { return r.ckptWall + r.restartWall }

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a/b) {
		return 0
	}
	return a / b
}

const mib = 1 << 20
