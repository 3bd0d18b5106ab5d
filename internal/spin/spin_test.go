package spin

import (
	"testing"
	"time"
)

func TestItersPositive(t *testing.T) {
	if Iters(1) < 1 || Iters(1000) < Iters(1) {
		t.Fatal("Iters not monotone or non-positive")
	}
}

func TestForApproximatesBudget(t *testing.T) {
	// A 100µs spin should take between 20µs and 5ms even on a noisy
	// shared machine (the calibration only has to hold ratios).
	start := time.Now()
	For(100_000)
	el := time.Since(start)
	if el < 20*time.Microsecond || el > 5*time.Millisecond {
		t.Fatalf("100us spin took %v", el)
	}
}

// TestCalibrateRepeatable: calibrations taken one after another — the
// first of them on a process that has only just started, the case a
// single probe got wrong by up to a third — must agree within a few
// percent. The host's clock can change under any one calibration, so a
// round that disagrees is retried; what must not happen is that they
// keep disagreeing.
func TestCalibrateRepeatable(t *testing.T) {
	const rounds, perRound, tolerance = 4, 5, 0.05
	var lo, hi float64
	for r := 0; r < rounds; r++ {
		lo = calibrate()
		hi = lo
		for i := 1; i < perRound; i++ {
			c := calibrate()
			lo, hi = min(lo, c), max(hi, c)
		}
		if hi <= lo*(1+tolerance) {
			return
		}
		t.Logf("round %d: calibrations span %.4f..%.4f ns/iter", r, lo, hi)
	}
	t.Fatalf("calibrations disagree by %.1f%% (%.4f..%.4f ns/iter) in %d rounds of %d",
		100*(hi/lo-1), lo, hi, rounds, perRound)
}
