// Package streamapps implements the two stream-oriented NVIDIA CUDA code
// samples used in the paper's Section 4.4.2: simpleStreams and
// UnifiedMemoryStreams (UMS). Both are configured as in the paper —
// simpleStreams scaled from 4 to 128 streams (the V100's concurrent
// kernel maximum) with 1000 repetitions, and UMS with 128 streams and
// 1280 tasks seeded with 12701.
package streamapps

import (
	"fmt"
	"math"

	"repro/internal/crt"
	"repro/internal/kernels"
	"repro/internal/workloads"
)

// SimpleStreams reproduces the simpleStreams sample: an init kernel with
// a configurable inner iteration count, run once over the full array on
// the default stream (non-streamed) and once split across N streams with
// each kernel/memcpy pair in its own stream. The Detail map carries the
// Figure 4b measurements:
//
//	"kernel_ms_nonstreamed" — one full-array kernel execution (ms)
//	"kernel_ms_streamed"    — one per-stream chunk kernel execution (ms)
//	"memcpy_ms_nonstreamed" — one full-array D2H copy (ms)
//	"memcpy_ms_streamed"    — per-chunk copy overlapped across streams (ms)
func SimpleStreams() *workloads.App {
	return &workloads.App{
		Name:      "simpleStreams",
		PaperArgs: "nreps=1000 niterations={5,10,100,500} streams=128 (Blocking Sync)",
		Char: workloads.Characteristics{
			Streams:     true,
			MinStreams:  4,
			MaxStreams:  128,
			Description: "kernel/memcpy overlap across streams (NVIDIA sample)",
		},
		KernelTables: func() map[string]map[string]workloads.Kernel {
			return map[string]map[string]workloads.Kernel{kernels.Module: kernels.Table()}
		},
		Run: func(rt crt.Runtime, cfg workloads.RunConfig) (workloads.Result, error) {
			return workloads.Measure(rt, "simpleStreams", func() (float64, map[string]float64, error) {
				e := workloads.NewEnv(rt)
				e.RegisterModule(kernels.Module, kernels.Table())

				nstreams := cfg.Streams
				if nstreams == 0 {
					nstreams = 128
				}
				nreps := cfg.Reps
				if nreps == 0 {
					nreps = workloads.ScaleInt(40, cfg.EffScale(), 4)
				}
				niter := cfg.Iters
				if niter == 0 {
					niter = 10
				}
				total := workloads.ScaleInt(1<<20, cfg.EffScale(), 1<<14) // int32 elements
				total = (total / nstreams) * nstreams
				chunk := total / nstreams
				const value = 5

				dArr := e.Malloc(uint64(4 * total))
				hArr := e.MallocHost(uint64(4 * total)) // pinned, as the sample requires for async copies
				streams := make([]crt.StreamHandle, nstreams)
				for i := range streams {
					streams[i] = e.StreamCreate()
				}
				evStart := mustEvent(e)
				evEnd := mustEvent(e)
				if e.Err() != nil {
					return 0, nil, e.Err()
				}

				lcFull := workloads.Launch1D(total)
				lcChunk := workloads.Launch1D(chunk)
				detail := map[string]float64{}

				var kernelNS, kernelSD, copyNS, copySD float64
				measured := 0
				for rep := 0; rep < nreps; rep++ {
					// rep 0 is a warmup for the per-kernel details (cold
					// caches and first-touch page zeroing would skew it).
					timed := rep > 0 || nreps == 1
					// Non-streamed: one kernel over the full array, then
					// one full D2H copy, serialized on the default stream.
					e.FailIf(rt.EventRecord(evStart, crt.DefaultStream))
					e.Launch(kernels.Module, "initArray", lcFull, crt.DefaultStream,
						dArr, uint64(total), uint64(value), uint64(niter))
					e.FailIf(rt.EventRecord(evEnd, crt.DefaultStream))
					e.FailIf(rt.EventSynchronize(evEnd))
					if d, err := rt.EventElapsed(evStart, evEnd); err == nil && timed {
						kernelNS += d.Seconds() * 1e3
					}
					cs, ce := mustEvent(e), mustEvent(e)
					e.FailIf(rt.EventRecord(cs, crt.DefaultStream))
					e.MemcpyAsync(hArr, dArr, uint64(4*total), crt.MemcpyDeviceToHost, crt.DefaultStream)
					e.FailIf(rt.EventRecord(ce, crt.DefaultStream))
					e.FailIf(rt.EventSynchronize(ce))
					if d, err := rt.EventElapsed(cs, ce); err == nil && timed {
						copyNS += d.Seconds() * 1e3
					}

					// Streamed: each kernel/memcpy pair in its own stream.
					// The per-kernel timing brackets stream[0]'s kernel
					// only, and ends before the host submits the remaining
					// streams, so it measures that kernel's execution alone
					// rather than host submission or its siblings'
					// contention for the CPUs that simulate the device.
					ks, ke := mustEvent(e), mustEvent(e)
					e.FailIf(rt.EventRecord(ks, streams[0]))
					e.Launch(kernels.Module, "initArray", lcChunk, streams[0],
						dArr, uint64(chunk), uint64(value), uint64(niter))
					e.FailIf(rt.EventRecord(ke, streams[0]))
					e.FailIf(rt.EventSynchronize(ke))
					for s := 1; s < nstreams; s++ {
						off := uint64(4 * s * chunk)
						e.Launch(kernels.Module, "initArray", lcChunk, streams[s],
							dArr+off, uint64(chunk), uint64(value), uint64(niter))
					}
					cs2, ce2 := mustEvent(e), mustEvent(e)
					e.FailIf(rt.EventRecord(cs2, streams[0]))
					for s := 0; s < nstreams; s++ {
						off := uint64(4 * s * chunk)
						e.MemcpyAsync(hArr+off, dArr+off, uint64(4*chunk), crt.MemcpyDeviceToHost, streams[s])
					}
					for s := 0; s < nstreams; s++ {
						e.StreamSync(streams[s])
					}
					e.FailIf(rt.EventRecord(ce2, streams[0]))
					e.FailIf(rt.EventSynchronize(ce2))
					if d, err := rt.EventElapsed(ks, ke); err == nil && timed {
						kernelSD += d.Seconds() * 1e3
					}
					if d, err := rt.EventElapsed(cs2, ce2); err == nil && timed {
						copySD += d.Seconds() * 1e3
					}
					if timed {
						measured++
					}
					if cfg.Hook != nil {
						if err := cfg.Hook(rep); err != nil {
							return 0, nil, err
						}
					}
					if e.Err() != nil {
						return 0, nil, e.Err()
					}
				}
				e.DeviceSync()
				// Verify the array holds the expected value.
				hv := e.HostI32(hArr, total)
				if e.Err() != nil {
					return 0, nil, e.Err()
				}
				var sum float64
				for _, v := range hv {
					sum += float64(v)
				}
				if want := float64(value * total); math.Abs(sum-want) > 0.5 {
					return 0, nil, fmt.Errorf("simpleStreams: checksum %v, want %v", sum, want)
				}
				if measured == 0 {
					measured = 1
				}
				detail["kernel_ms_nonstreamed"] = kernelNS / float64(measured)
				detail["kernel_ms_streamed"] = kernelSD / float64(measured)
				detail["memcpy_ms_nonstreamed"] = copyNS / float64(measured)
				detail["memcpy_ms_streamed"] = copySD / float64(measured)
				return sum, detail, nil
			})
		},
	}
}

// mustEvent creates an event through the env.
func mustEvent(e *workloads.Env) crt.EventHandle {
	h, err := e.RT.EventCreate()
	if err != nil {
		e.FailWith(err)
	}
	return h
}

// UnifiedMemoryStreams reproduces the UMS sample: a task consumer where
// all task data lives in Unified Memory and tasks are consumed by both
// host and device (small tasks on the host, large ones as kernels on one
// of 128 streams), with task sizes randomized from seed 12701 as in the
// paper.
func UnifiedMemoryStreams() *workloads.App {
	return &workloads.App{
		Name:      "UnifiedMemoryStreams",
		PaperArgs: "streams=128 tasks=1280 seed=12701",
		Char: workloads.Characteristics{
			UVM:         true,
			Streams:     true,
			MinStreams:  4,
			MaxStreams:  128,
			Description: "task consumer over Unified Memory, host+device execution",
		},
		KernelTables: func() map[string]map[string]workloads.Kernel {
			return map[string]map[string]workloads.Kernel{kernels.Module: kernels.Table()}
		},
		Run: func(rt crt.Runtime, cfg workloads.RunConfig) (workloads.Result, error) {
			return workloads.Measure(rt, "UnifiedMemoryStreams", func() (float64, map[string]float64, error) {
				e := workloads.NewEnv(rt)
				e.RegisterModule(kernels.Module, kernels.Table())

				nstreams := cfg.Streams
				if nstreams == 0 {
					nstreams = 128
				}
				ntasks := workloads.ScaleInt(1280, cfg.EffScale(), 32)
				seed := cfg.Seed
				if seed == 0 {
					seed = 12701 // the paper's seed
				}
				iters := cfg.Iters
				if iters == 0 {
					iters = 4
				}

				streams := make([]crt.StreamHandle, nstreams)
				for i := range streams {
					streams[i] = e.StreamCreate()
				}
				// All results in one managed buffer; host and device both
				// write it (CRAC supports this; CRUM's shadow scheme does
				// not when streams interleave).
				dResults := e.MallocManaged(uint64(4 * ntasks))
				rng := workloads.NewLCG(seed)

				// Tasks: managed data buffers of randomized size.
				const hostThreshold = 2048 // elements; small tasks run on the host
				type task struct {
					data uint64
					n    int
					out  uint64
				}
				tasks := make([]task, ntasks)
				for i := range tasks {
					n := 256 + rng.Intn(4096)
					tasks[i] = task{
						data: e.MallocManaged(uint64(4 * n)),
						n:    n,
						out:  dResults + uint64(4*i),
					}
					// Host initialization of managed data (UVM: pages
					// start host-resident).
					dv := e.HostF32(tasks[i].data, n)
					if e.Err() != nil {
						return 0, nil, e.Err()
					}
					for j := range dv {
						dv[j] = 1.0 / float32(1+j%17)
					}
				}

				for i, t := range tasks {
					if t.n < hostThreshold {
						// Host execution, directly on unified memory.
						dv := e.HostF32(t.data, t.n)
						ov := e.HostF32(t.out, 1)
						if e.Err() != nil {
							return 0, nil, e.Err()
						}
						var total float64
						for k := 0; k < iters; k++ {
							total = 0
							for _, v := range dv {
								total += float64(v)
							}
						}
						ov[0] = float32(total)
					} else {
						// Device execution on a round-robin stream.
						e.Launch(kernels.Module, "spinCollect", workloads.Launch1D(t.n),
							streams[i%nstreams], t.data, t.out, uint64(t.n), uint64(iters))
					}
					if cfg.Hook != nil {
						if err := cfg.Hook(i); err != nil {
							return 0, nil, err
						}
					}
					if e.Err() != nil {
						return 0, nil, e.Err()
					}
				}
				e.DeviceSync()
				// Host reads every result from unified memory.
				rv := e.HostF32(dResults, ntasks)
				if e.Err() != nil {
					return 0, nil, e.Err()
				}
				var sum float64
				for _, v := range rv {
					sum += float64(v)
				}
				return sum, nil, nil
			})
		},
	}
}
