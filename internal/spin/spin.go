// Package spin provides a calibrated busy-wait used to model fixed
// hardware/kernel latencies (system-call entry, CUDA driver calls) that
// cannot be reproduced literally in a sandboxed environment, where real
// system calls cost two orders of magnitude more than on bare metal.
//
// The calibration measures the host's spin throughput once and converts
// nanosecond budgets into iteration counts, so modelled latencies hold
// their intended *ratios* (e.g. arch_prctl vs WRFSBASE, cudaMalloc vs a
// kernel launch) regardless of the machine.
package spin

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

var (
	once      sync.Once
	perIterNs float64
)

// sink defeats dead-code elimination.
var sink atomic.Uint64

//go:noinline
func spin(iters int) uint64 {
	var acc uint64 = 0x9e3779b9
	for i := 0; i < iters; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}

// calibrate keeps the fastest of a run of probes, and goes on probing
// until the fastest has stood for `settle` probes in a row: a shared
// host clocks its cores at more than one speed, a fresh process starts
// on a cold one, and a single probe that lands on a slow stretch would
// make every modelled latency too short for the life of the process.
func calibrate() float64 {
	const probe, settle, maxProbes = 1 << 16, 64, 512
	best := time.Duration(math.MaxInt64)
	for i, stood := 0, 0; i < maxProbes && stood < settle; i++ {
		start := time.Now()
		sink.Store(spin(probe))
		el := time.Since(start)
		if el < best-best/100 {
			stood = 0
		} else {
			stood++
		}
		best = min(best, el)
	}
	if best <= 0 {
		return 1
	}
	return float64(best.Nanoseconds()) / probe
}

// Iters returns the spin iteration count approximating ns nanoseconds.
func Iters(ns int) int {
	once.Do(func() { perIterNs = calibrate() })
	n := int(float64(ns) / perIterNs)
	if n < 1 {
		n = 1
	}
	return n
}

// For busy-waits for approximately ns nanoseconds.
func For(ns int) {
	sink.Store(spin(Iters(ns)))
}

// ForIters busy-waits for a precomputed iteration count (use Iters once,
// then ForIters on hot paths to avoid the conversion).
func ForIters(iters int) {
	sink.Store(spin(iters))
}
