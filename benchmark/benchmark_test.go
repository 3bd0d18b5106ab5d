package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 5 {
		t.Errorf("p90 = %g, want 5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestQuietQuantile: a run that spent three quarters of its time at the
// slow clock reads the slow speed on every whole-run quantile and the
// fast one in its quietest stretch; too few samples for two batches are
// the plain quantile.
func TestQuietQuantile(t *testing.T) {
	var xs []float64
	for i := 0; i < 256; i++ {
		v := 138.0
		if i >= 96 && i < 160 {
			v = 100
		}
		xs = append(xs, v+float64(i%3))
	}
	if got := median(xs); got < 138 {
		t.Errorf("whole-run median = %g, want the slow speed", got)
	}
	if got := quietMedian(xs, false); got != 101 {
		t.Errorf("quietMedian = %g, want 101 (the fast stretch)", got)
	}
	if got := quietMedian(xs, true); got != 139 {
		t.Errorf("quietMedian, higher is better = %g, want 139", got)
	}
	if got, want := quietQuantile(xs, 0.9, false), quantile(xs, 0.9); got != want {
		t.Errorf("quiet p90 of 256 samples = %g, want the plain p90 %g (one batch)", got, want)
	}
	if got := bestBatch([]float64{9, 9, 9, 5, 4, 6, 9, 9, 9}, 3, 0.5, false); got != 5 {
		t.Errorf("bestBatch of three = %g, want 5", got)
	}
}

func TestSelfTime(t *testing.T) {
	const u = time.Millisecond
	spans := []span{
		{ID: 1, Name: "ckpt", Start: 0, Dur: 100 * u},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * u, Dur: 20 * u}, // [10,30)
		{ID: 3, Parent: 1, Name: "b", Start: 20 * u, Dur: 30 * u}, // [20,50) overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: 60 * u, Dur: 10 * u}, // [60,70)
		{ID: 5, Parent: 3, Name: "c", Start: 25 * u, Dur: 50 * u}, // sticks out of b: clipped to [25,50)
		{ID: 6, Name: "app", Start: 200 * u, Dur: 40 * u},
	}
	rows, cov := selfTimes(spans, "ckpt")
	got := map[string]layerRow{}
	for _, r := range rows {
		got[r.Name] = r
	}
	want := map[string]layerRow{
		"ckpt": {Name: "ckpt", Count: 1, Total: 100 * u, Self: 50 * u}, // children cover [10,50) and [60,70)
		"a":    {Name: "a", Count: 2, Total: 30 * u, Self: 30 * u},
		"b":    {Name: "b", Count: 1, Total: 30 * u, Self: 5 * u},
		"c":    {Name: "c", Count: 1, Total: 50 * u, Self: 50 * u},
		"app":  {Name: "app", Count: 1, Total: 40 * u, Self: 40 * u},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("row %s = %+v, want %+v", name, got[name], w)
		}
	}
	if cov != 50 {
		t.Errorf("coverage of ckpt = %g%%, want 50%%", cov)
	}
}

func TestTracerLaysChildrenEndToEnd(t *testing.T) {
	tr := newTracer()
	op := tr.op("ckpt", tr.epoch.Add(time.Second), 10*time.Millisecond)
	a := tr.child(op, "a", 3*time.Millisecond)
	b := tr.child(op, "b", 4*time.Millisecond)
	if tr.child(op, "dropped", 0) != 0 {
		t.Error("a zero-length child was recorded")
	}
	sa, sb := tr.spans[a-1], tr.spans[b-1]
	if sa.Start != time.Second || sb.Start != time.Second+3*time.Millisecond {
		t.Errorf("children start at %v and %v, want 1s and 1.003s", sa.Start, sb.Start)
	}
	_, cov := selfTimes(tr.spans, "ckpt")
	if cov != 70 {
		t.Errorf("coverage = %g%%, want 70%%", cov)
	}
	var nilTracer *tracer
	if nilTracer.op("x", time.Now(), time.Second) != 0 || nilTracer.child(1, "y", time.Second) != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

// benchmarkJSON mirrors the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's charset", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for name := range registry {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q is outside the contract's charset", name)
		}
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json and the code together:
// the same workloads, the same metrics with the same units and
// directions, a bound on every end-to-end metric and on no other.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(registry) {
		t.Errorf("%d workloads declared, %d in the code", len(b.Workloads), len(registry))
	}
	for _, w := range b.Workloads {
		if _, ok := registry[w.Name]; !ok {
			t.Errorf("declared workload %q is not in the code", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, decl []declared, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Errorf("%s: %d declared, %d in the code", kind, len(decl), len(defs))
		}
		byName := map[string]metricDef{}
		for _, d := range defs {
			byName[d.Name] = d
		}
		for _, m := range decl {
			d, ok := byName[m.Name]
			if !ok {
				t.Errorf("%s: declared metric %q is not in the code", kind, m.Name)
				continue
			}
			delete(byName, m.Name)
			if m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %s: declared %s/%s, code has %s/%s", kind, m.Name, m.Unit, m.Better, d.Unit, d.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %s: bound %v is outside (0, 0.25]", kind, m.Name, m.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: a layer metric carries no bound", kind, m.Name)
			}
		}
		for name := range byName {
			t.Errorf("%s: code metric %q is not declared", kind, name)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestSmoke runs all four workloads at a few iterations with the oracle
// on, untraced, and the smallest one traced: every declared metric is
// emitted, nothing else is, and no op fails.
func TestSmoke(t *testing.T) {
	run := func(workload string, trace int, defs []metricDef) {
		res, err := runOnce(options{workload: workload, seed: 7, trace: trace, smoke: true,
			out: t.TempDir() + "/trace.json"})
		if err != nil {
			t.Fatalf("%s trace=%d: %v", workload, trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s trace=%d: %d metrics emitted, %d declared", workload, trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok {
				t.Errorf("%s trace=%d: declared metric %s was not emitted", workload, trace, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s trace=%d: %s emitted in %s, declared in %s", workload, trace, d.Name, m.Unit, d.Unit)
			}
			if trace == 0 && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %g; it must never be 0", workload, d.Name, m.Value)
			}
		}
	}
	for name := range registry {
		run(name, 0, endToEnd)
	}
	run("fleet_http", 1, perLayer)
}
