package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -repeat reads: the bound
// each end-to-end metric may worsen by.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the driver uses for the spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// repeatMode runs the set — every workload, or the one named — N times
// in fresh processes and prints, per metric, the median, the quartiles
// and the spread (interquartile distance over the median) against the
// metric's bound. Seeds run from -seed upward unless -ops pins the run
// to one seed and one op count: then every count must repeat exactly,
// and timings, of which such a short run has few, are not judged.
func repeatMode(o options) error {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	} else {
		fmt.Fprintln(os.Stderr, "benchmark: no BENCHMARK.json in the working directory; spreads are printed without bounds")
	}
	names := []string{"bulk_full", "replay_churn", "sparse_chain", "fleet_http"}
	if o.workload != "" {
		if _, ok := registry[o.workload]; !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		names = []string{o.workload}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	unresolved := 0
	for _, name := range names {
		samples := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < o.repeat; i++ {
			seed := o.seed + int64(i)
			if o.ops > 0 {
				seed = o.seed
			}
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(o.trace), "-ops", strconv.Itoa(o.ops))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: last line is not a result: %w", name, i, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d ops failed", name, i, res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				samples[m] = append(samples[m], v.Value)
				units[m] = v.Unit
			}
		}
		fmt.Printf("\n%s: %d runs\n%-32s %12s %12s %12s %8s %6s  %s\n", name, o.repeat,
			"metric", "q1", "median", "q3", "spread", "bound", "unit")
		metrics := make([]string, 0, len(samples))
		for m := range samples {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			q1, q2, q3 := quartiles(samples[m])
			spread := ratio(q3-q1, q2)
			note := ""
			bound, bounded := bounds[m]
			switch {
			case o.ops > 0 && isCount(m, units[m]) && q1 != q3:
				note = "count differs between runs of one seed"
				unresolved++
			case o.ops == 0 && bounded && m != "setup_s" && spread > bound:
				note = "unresolved: spread exceeds bound"
				unresolved++
			}
			b := "-"
			if bounded {
				b = strconv.FormatFloat(bound, 'g', -1, 64)
			}
			fmt.Printf("%-32s %12.6g %12.6g %12.6g %7.1f%% %6s  %s %s\n", m, q1, q2, q3, 100*spread, b, units[m], note)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metric(s) unresolved", unresolved)
	}
	return nil
}

// isCount reports whether a metric is a count the program makes, which
// must repeat exactly; the Go runtime's own counts (proc.*) do not.
func isCount(name, unit string) bool {
	return (unit == "count" || unit == "ratio") && !strings.HasPrefix(name, "proc.")
}
