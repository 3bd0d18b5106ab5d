package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestListExperiments(t *testing.T) {
	code, out, _ := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, want := range []string{"fig2", "fig3", "table3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errOut := runBench(t, "-exp", "nope")
	if code != 2 || !strings.Contains(errOut, "unknown experiment") {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
}

// TestQuickExperimentWithArtifacts smoke-runs one real experiment and
// checks the CSV and -benchjson artifacts cracbench's CI step relies
// on.
func TestQuickExperimentWithArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment still runs real workloads")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	code, out, errOut := runBench(t,
		"-exp", "fig3", "-quick", "-v=false", "-out", dir, "-benchjson", jsonPath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "fig3") {
		t.Fatalf("missing table output:\n%s", out)
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("benchjson: %v", err)
	}
	var report struct {
		Experiments []struct {
			ID     string `json:"id"`
			Tables []struct {
				Rows [][]string `json:"Rows"`
			} `json:"tables"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(b, &report); err != nil {
		t.Fatalf("benchjson parse: %v", err)
	}
	if len(report.Experiments) != 1 || report.Experiments[0].ID != "fig3" {
		t.Fatalf("benchjson experiments = %+v", report.Experiments)
	}
	if len(report.Experiments[0].Tables) == 0 || len(report.Experiments[0].Tables[0].Rows) == 0 {
		t.Fatalf("benchjson has no table rows")
	}
	csvs, _ := filepath.Glob(filepath.Join(dir, "*.csv"))
	if len(csvs) == 0 {
		t.Fatalf("no CSV artifacts in %s", dir)
	}
}
