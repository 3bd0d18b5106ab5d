// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact, in Quick mode so `go test
// -bench=.` stays tractable), plus microbenchmarks of the primitives the
// paper's numbers decompose into: trampoline dispatch, kernel launch,
// checkpoint, restart.
//
// Regenerate the full-size artifacts with:
//
//	go run ./cmd/cracbench -exp all
package crac_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	crac "repro"
	"repro/internal/crt"
	"repro/internal/harness"
	"repro/internal/kernels"
)

// runExperiment executes one harness experiment in Quick mode b.N times.
func runExperiment(b *testing.B, id string) {
	e := harness.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	opt := harness.Options{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(opt)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			for _, t := range tables {
				t.Fprint(io.Discard)
			}
		}
	}
}

// One benchmark per paper artifact (Section 4, Figures 2-6, Tables 1-3).

func BenchmarkIntroTop500(b *testing.B)            { runExperiment(b, "intro") }
func BenchmarkTable1Characterization(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2CommandLines(b *testing.B)     { runExperiment(b, "table2") }
func BenchmarkFig2RodiniaOverhead(b *testing.B)    { runExperiment(b, "fig2") }
func BenchmarkFig3CheckpointRestart(b *testing.B)  { runExperiment(b, "fig3") }
func BenchmarkFig4aSimpleStreams(b *testing.B)     { runExperiment(b, "fig4a") }
func BenchmarkFig4bKernelTime(b *testing.B)        { runExperiment(b, "fig4b") }
func BenchmarkFig5aStreamBenchmarks(b *testing.B)  { runExperiment(b, "fig5a") }
func BenchmarkFig5bRealWorld(b *testing.B)         { runExperiment(b, "fig5b") }
func BenchmarkFig5cCheckpointRestart(b *testing.B) { runExperiment(b, "fig5c") }
func BenchmarkTable3BLASvsIPC(b *testing.B)        { runExperiment(b, "table3") }
func BenchmarkFig6FSGSBASE(b *testing.B)           { runExperiment(b, "fig6") }
func BenchmarkAblationDesignChoices(b *testing.B)  { runExperiment(b, "ablations") }

// Beyond the paper: live-migration downtime vs stop-copy-restart.
func BenchmarkMigrate(b *testing.B) { runExperiment(b, "migrate") }

// Beyond the paper: content-addressed dedup, stored bytes plain vs CAS.
func BenchmarkDedup(b *testing.B) { runExperiment(b, "dedup") }

// Beyond the paper: multi-tenant pool, N concurrent sessions under a
// seeded checkpoint/restart/mutate mix with staggered epoch cuts.
func BenchmarkPoolLoad(b *testing.B) { runExperiment(b, "load") }

// Microbenchmarks of the primitives.

// benchSession builds a CRAC session with a registered kernel module and
// one device buffer.
func benchSession(b *testing.B, opts ...crac.Option) (*crac.Session, crt.Runtime, crt.FatBinHandle, uint64) {
	b.Helper()
	s, err := crac.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	rt := s.Runtime()
	fat, err := rt.RegisterFatBinary(kernels.Module)
	if err != nil {
		b.Fatal(err)
	}
	for name, k := range kernels.Table() {
		if err := rt.RegisterFunction(fat, name, k); err != nil {
			b.Fatal(err)
		}
	}
	buf, err := rt.Malloc(1 << 16)
	if err != nil {
		b.Fatal(err)
	}
	return s, rt, fat, buf
}

// BenchmarkDispatchNative measures a small CUDA call through the direct
// binding (the baseline of every overhead figure).
func BenchmarkDispatchNative(b *testing.B) {
	rt, err := crac.NewNative()
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	buf, _ := rt.Malloc(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Memset(buf, byte(i), 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchCRACSyscall measures the same call through the CRAC
// trampoline with syscall-based fs switching (unpatched kernel).
func BenchmarkDispatchCRACSyscall(b *testing.B) {
	_, rt, _, buf := benchSession(b, crac.WithSwitcher(crac.SwitchSyscall))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Memset(buf, byte(i), 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchCRACFSGSBase measures the trampoline with the
// FSGSBASE register write (Section 4.4.5).
func BenchmarkDispatchCRACFSGSBase(b *testing.B) {
	_, rt, _, buf := benchSession(b, crac.WithSwitcher(crac.SwitchFSGSBase))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Memset(buf, byte(i), 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelLaunchCRAC measures a full kernel launch + sync cycle
// under CRAC (three trampoline crossings per the paper's formula).
func BenchmarkKernelLaunchCRAC(b *testing.B) {
	_, rt, fat, buf := benchSession(b)
	lc := crt.LaunchConfig{Grid: crt.Dim3{X: 1}, Block: crt.Dim3{X: 256}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.LaunchKernel(fat, "fill", lc, crt.DefaultStream, buf, kernels.F32Arg(1), 16); err != nil {
			b.Fatal(err)
		}
	}
	if err := rt.DeviceSynchronize(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMallocFreeCRAC measures the logged cudaMalloc/cudaFree pair
// (including the modelled driver latency that dominates restart replay).
func BenchmarkMallocFreeCRAC(b *testing.B) {
	_, rt, _, _ := benchSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := rt.Malloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint measures writing a checkpoint image of a session
// with 16 MiB of active device memory.
func BenchmarkCheckpoint(b *testing.B) {
	s, rt, _, _ := benchSession(b)
	big, err := rt.Malloc(16 << 20)
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.Memset(big, 0xAB, 16<<20); err != nil {
		b.Fatal(err)
	}
	var img bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.Reset()
		if _, err := s.Checkpoint(context.Background(), &img); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(img.Len()))
}

// BenchmarkRestart measures the full restart path: fresh lower half,
// upper-half restore, log replay, memory refill.
func BenchmarkRestart(b *testing.B) {
	s, rt, _, _ := benchSession(b)
	// A log with some churn, so replay has work to do.
	for i := 0; i < 32; i++ {
		a, err := rt.Malloc(64 << 10)
		if err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 {
			if err := rt.Free(a); err != nil {
				b.Fatal(err)
			}
		}
	}
	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// parallelBenchSession builds a session with ≥64 MiB of live device
// allocations spread across ≥16 mallocs (each larger than the image
// shard size, so both the region fan-out and the intra-allocation shard
// fan-out are exercised), plus a few upper-half cudaHostAlloc regions
// that travel in the image body itself.
func parallelBenchSession(b *testing.B, workers int, gz bool) (*crac.Session, uint64) {
	b.Helper()
	opts := []crac.Option{crac.WithWorkers(workers)}
	if gz {
		opts = append(opts, crac.WithGzip(1)) // BestSpeed: the honest fast-compression setting
	}
	s, err := crac.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	rt := s.Runtime()
	const (
		allocs    = 16
		allocSize = 4 << 20
	)
	var total uint64
	for i := 0; i < allocs; i++ {
		a, err := rt.Malloc(allocSize)
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Memset(a, byte(0x11*i+1), allocSize); err != nil {
			b.Fatal(err)
		}
		total += allocSize
	}
	for i := 0; i < 4; i++ {
		h, err := rt.HostAlloc(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Memset(h, byte(i+1), 1<<20); err != nil {
			b.Fatal(err)
		}
		total += 1 << 20
	}
	return s, total
}

// countingWriter counts image bytes without buffering them, so the
// benchmark measures the data path rather than bytes.Buffer growth.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// BenchmarkCheckpointParallel measures the pipelined checkpoint write
// (68 MiB of live state) at worker count 1 (the serial reference path)
// and at full fan-out, raw and gzip'd.
func BenchmarkCheckpointParallel(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
		gz      bool
	}{
		{"workers=1", 1, false},
		{"workers=all", 0, false},
		{"gzip/workers=1", 1, true},
		{"gzip/workers=all", 0, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, total := parallelBenchSession(b, bc.workers, bc.gz)
			// Warm up the heap so the first timed iteration doesn't pay
			// the OS page-fault cost of the section buffers.
			if _, err := s.Checkpoint(context.Background(), &countingWriter{}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var w countingWriter
				if _, err := s.Checkpoint(context.Background(), &w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestartParallel measures the full restart path (image parse,
// fresh lower half, region restore, log replay, memory refill) at
// worker count 1 and full fan-out.
func BenchmarkRestartParallel(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=all", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, total := parallelBenchSession(b, bc.workers, false)
			var img bytes.Buffer
			if _, err := s.Checkpoint(context.Background(), &img); err != nil {
				b.Fatal(err)
			}
			if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestartLazy measures time-to-first-kernel on the standard
// ~69 MiB workload: from the start of the restart until one kernel
// launch + sync has completed on the restored session. The waited rows
// (RestartFrom) materialize the whole image before the kernel can run;
// the lazy rows (RestartAsync, unwaited) pay only the metadata scan and
// log replay, faulting in just the pages the kernel touches, while the
// prefetcher drains the rest in the background (outside the timed
// window). drainMs/op reports the overlapped background drain.
func BenchmarkRestartLazy(b *testing.B) {
	for _, bc := range []struct {
		name string
		lazy bool
	}{
		{"waited", false},
		{"lazy", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, total := parallelBenchSession(b, 0, false)
			rt := s.Runtime()
			fat, err := rt.RegisterFatBinary(kernels.Module)
			if err != nil {
				b.Fatal(err)
			}
			for name, k := range kernels.Table() {
				if err := rt.RegisterFunction(fat, name, k); err != nil {
					b.Fatal(err)
				}
			}
			probe, err := rt.Malloc(64 << 10)
			if err != nil {
				b.Fatal(err)
			}
			store, err := crac.NewDirStore(b.TempDir(), 0, crac.WithNoSync())
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, err := s.CheckpointTo(ctx, store, "img"); err != nil {
				b.Fatal(err)
			}
			firstKernel := func() {
				lc := crt.LaunchConfig{Grid: crt.Dim3{X: 16}, Block: crt.Dim3{X: 256}}
				if err := rt.LaunchKernel(fat, "fill", lc, crt.DefaultStream, probe, kernels.F32Arg(3), (64<<10)/4); err != nil {
					b.Fatal(err)
				}
				if err := rt.DeviceSynchronize(); err != nil {
					b.Fatal(err)
				}
			}
			// Warm up one full cycle.
			if err := s.RestartFrom(ctx, store, "img"); err != nil {
				b.Fatal(err)
			}
			firstKernel()
			b.SetBytes(int64(total))
			var drain, visible time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The previous iteration discarded a whole address space;
				// collect it outside the timed window (symmetrically for
				// both arms) so TTFK measures the restart path, not GC
				// scheduling noise.
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				if bc.lazy {
					tv := time.Now()
					p, err := s.RestartAsync(ctx, store, "img")
					if err != nil {
						b.Fatal(err)
					}
					visible += time.Since(tv)
					firstKernel()
					// The background drain runs outside the TTFK window.
					b.StopTimer()
					st, err := p.Wait()
					if err != nil {
						b.Fatal(err)
					}
					drain += st.RestoreBackgroundDuration
					b.StartTimer()
				} else {
					if err := s.RestartFrom(ctx, store, "img"); err != nil {
						b.Fatal(err)
					}
					firstKernel()
				}
			}
			b.StopTimer()
			if bc.lazy {
				b.ReportMetric(float64(drain.Nanoseconds())/1e6/float64(b.N), "drainMs/op")
				b.ReportMetric(float64(visible.Nanoseconds())/1e6/float64(b.N), "visibleMs/op")
			}
		})
	}
}

// countingStore measures image bytes flowing through Store.Put without
// retaining them — the write-side cost of a checkpoint policy.
type countingStore struct {
	bytes int64
	puts  int64
}

func (cs *countingStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	var w countingWriter
	if err := write(&w); err != nil {
		return err
	}
	cs.bytes += w.n
	cs.puts++
	return nil
}
func (cs *countingStore) Get(context.Context, string) (io.ReadCloser, error) {
	return nil, crac.ErrImageNotFound
}
func (cs *countingStore) List(context.Context) ([]string, error) { return nil, nil }
func (cs *countingStore) Delete(context.Context, string) error   { return nil }

// BenchmarkCheckpointIncremental compares full v2 checkpoints against
// the incremental v3 chain on a sparse-update workload: ~69 MiB of live
// state (upper-half host buffers + device allocations + a managed
// buffer) with well under 10% dirtied between checkpoints. The
// imgMB/op metric is the average image size each policy writes per
// checkpoint — the incremental chain is expected to write ≥5× fewer
// payload bytes and finish proportionally faster.
func BenchmarkCheckpointIncremental(b *testing.B) {
	const (
		hostBufs  = 16
		devAllocs = 16
		bufSize   = 2 << 20
	)
	for _, bc := range []struct {
		name string
		opts []crac.Option
	}{
		{"full-v2", nil},
		// A bounded chain depth measures the steady state; an unbounded
		// one would grow per-checkpoint lineage state with b.N.
		{"incremental", []crac.Option{crac.WithIncremental(64)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := append([]crac.Option{crac.WithWorkers(0), crac.WithShardSize(256 << 10)}, bc.opts...)
			s, err := crac.New(opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			rt := s.Runtime()
			var host, dev []uint64
			var total uint64
			for i := 0; i < hostBufs; i++ {
				h, err := rt.HostAlloc(bufSize)
				if err != nil {
					b.Fatal(err)
				}
				if err := rt.Memset(h, byte(i+1), bufSize); err != nil {
					b.Fatal(err)
				}
				host = append(host, h)
				total += bufSize
			}
			for i := 0; i < devAllocs; i++ {
				d, err := rt.Malloc(bufSize)
				if err != nil {
					b.Fatal(err)
				}
				if err := rt.Memset(d, byte(0x21*i+3), bufSize); err != nil {
					b.Fatal(err)
				}
				dev = append(dev, d)
				total += bufSize
			}
			m, err := rt.MallocManaged(bufSize)
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.Memset(m, 0x7F, bufSize); err != nil {
				b.Fatal(err)
			}
			total += bufSize

			store := &countingStore{}
			ctx := context.Background()
			// The chain's base (and the full path's warm-up) stays out of
			// the timed region: the steady state is what matters.
			if _, err := s.CheckpointTo(ctx, store, "gen-base"); err != nil {
				b.Fatal(err)
			}
			store.bytes, store.puts = 0, 0
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Sparse update: 256 KiB of one host buffer, one 2 MiB
				// device allocation — ~3% of the live state.
				if err := rt.Memset(host[i%hostBufs]+4096, byte(i), 256<<10); err != nil {
					b.Fatal(err)
				}
				if err := rt.Memset(dev[i%devAllocs], byte(i+1), bufSize); err != nil {
					b.Fatal(err)
				}
				if _, err := s.CheckpointTo(ctx, store, fmt.Sprintf("gen%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if store.puts > 0 {
				b.ReportMetric(float64(store.bytes)/float64(store.puts)/(1<<20), "imgMB/op")
			}
		})
	}
}

// BenchmarkCheckpointPause measures the application-visible pause of a
// checkpoint — the stop-the-world window — on the standard ~69 MiB
// sparse-update workload, for full images and incremental deltas. ns/op
// is the full checkpoint latency; the pauseMs/op metric is what a
// serving application actually freezes for — at most a fifth of the
// total (pinned by TestConcurrentPauseReduction in concurrent_test.go).
func BenchmarkCheckpointPause(b *testing.B) {
	const (
		hostBufs  = 16
		devAllocs = 16
		bufSize   = 2 << 20
	)
	for _, bc := range []struct {
		name string
		opts []crac.Option
	}{
		{"full", nil},
		{"delta", []crac.Option{crac.WithIncremental(64)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := append([]crac.Option{crac.WithWorkers(0), crac.WithShardSize(256 << 10)}, bc.opts...)
			s, err := crac.New(opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			rt := s.Runtime()
			var host, dev []uint64
			var total uint64
			for i := 0; i < hostBufs; i++ {
				h, err := rt.HostAlloc(bufSize)
				if err != nil {
					b.Fatal(err)
				}
				if err := rt.Memset(h, byte(i+1), bufSize); err != nil {
					b.Fatal(err)
				}
				host = append(host, h)
				total += bufSize
			}
			for i := 0; i < devAllocs; i++ {
				d, err := rt.Malloc(bufSize)
				if err != nil {
					b.Fatal(err)
				}
				if err := rt.Memset(d, byte(0x21*i+3), bufSize); err != nil {
					b.Fatal(err)
				}
				dev = append(dev, d)
				total += bufSize
			}
			m, err := rt.MallocManaged(bufSize)
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.Memset(m, 0x7F, bufSize); err != nil {
				b.Fatal(err)
			}
			total += bufSize

			store := &countingStore{}
			ctx := context.Background()
			if _, err := s.CheckpointTo(ctx, store, "gen-base"); err != nil {
				b.Fatal(err)
			}
			var pause time.Duration
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Memset(host[i%hostBufs]+4096, byte(i), 256<<10); err != nil {
					b.Fatal(err)
				}
				if err := rt.Memset(dev[i%devAllocs], byte(i+1), bufSize); err != nil {
					b.Fatal(err)
				}
				st, err := s.CheckpointTo(ctx, store, fmt.Sprintf("gen%d", i))
				if err != nil {
					b.Fatal(err)
				}
				pause += st.PauseDuration
			}
			b.StopTimer()
			b.ReportMetric(float64(pause.Nanoseconds())/1e6/float64(b.N), "pauseMs/op")
			b.ReportMetric(float64(pause.Nanoseconds())/float64(b.N), "pause-ns/op")
		})
	}
}

// BenchmarkUVMFaultRoundTrip measures one host→device→host page
// migration cycle through the pager.
func BenchmarkUVMFaultRoundTrip(b *testing.B) {
	_, rt, fat, _ := benchSession(b)
	m, err := rt.MallocManaged(4096)
	if err != nil {
		b.Fatal(err)
	}
	lc := crt.LaunchConfig{Grid: crt.Dim3{X: 1}, Block: crt.Dim3{X: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Host write faults the page to the host...
		if _, err := rt.HostAccess(m, 8, true); err != nil {
			b.Fatal(err)
		}
		// ...the kernel faults it back to the device.
		if err := rt.LaunchKernel(fat, "fill", lc, crt.DefaultStream, m, kernels.F32Arg(1), 2); err != nil {
			b.Fatal(err)
		}
		if err := rt.DeviceSynchronize(); err != nil {
			b.Fatal(err)
		}
	}
}

// Example output comparing dispatch costs, for the documentation.
func ExampleSession() {
	s, err := crac.New()
	if err != nil {
		panic(err)
	}
	defer s.Close()
	rt := s.Runtime()
	if _, err := rt.Malloc(1 << 20); err != nil {
		panic(err)
	}
	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		panic(err)
	}
	if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); err != nil {
		panic(err)
	}
	fmt.Println("restarted:", s.Generation() == 1)
	// Output: restarted: true
}
