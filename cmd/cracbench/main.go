// Command cracbench regenerates the tables and figures of the CRAC paper
// (Jain & Cooperman, SC'20) on the simulated substrate.
//
// Usage:
//
//	cracbench -list
//	cracbench -exp fig2 [-scale 1.0] [-iters 3] [-out results/]
//	cracbench -exp all [-quick]
//	cracbench -exp fig3 -quick -benchjson BENCH_checkpoint.json
//
// Each experiment prints the paper-style table to stdout; with -out, a
// CSV per table is written as well; with -benchjson, every result row
// is also written to one JSON file for machine consumption (CI uploads
// it as an artifact: tables, not a gate — the regression signal is the
// repository benchmark under benchmark/).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
)

// benchReport is the -benchjson output document.
type benchReport struct {
	Experiments []benchExperiment `json:"experiments"`
}

type benchExperiment struct {
	ID        string           `json:"id"`
	Title     string           `json:"title"`
	ElapsedMS int64            `json:"elapsed_ms"`
	Tables    []*harness.Table `json:"tables"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind main, split out so tests can drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cracbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID     = fs.String("exp", "all", "experiment id (see -list) or \"all\"")
		list      = fs.Bool("list", false, "list experiments and exit")
		scale     = fs.Float64("scale", 1.0, "workload scale factor (1.0 = repository default)")
		iters     = fs.Int("iters", 3, "timed repetitions per data point (paper: 10)")
		quick     = fs.Bool("quick", false, "shrink workloads for a fast smoke run")
		full      = fs.Bool("full", false, "enable the most expensive data points (Table 3 sgemm@100MB)")
		outDir    = fs.String("out", "", "directory for CSV output (optional)")
		benchJSON = fs.String("benchjson", "", "file for JSON benchmark output (optional)")
		verbose   = fs.Bool("v", true, "print progress")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "Experiments (paper artifact → id):")
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "  %-10s %s\n", e.ID, e.Title)
			fmt.Fprintf(stdout, "  %-10s paper: %s\n", "", e.Paper)
		}
		return 0
	}

	opt := harness.Options{
		Scale:      *scale,
		Iterations: *iters,
		Quick:      *quick,
		Full:       *full,
	}
	if *verbose {
		opt.Log = stderr
	}

	var exps []*harness.Experiment
	if *expID == "all" {
		exps = harness.All()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e := harness.ByID(strings.TrimSpace(id))
			if e == nil {
				fmt.Fprintf(stderr, "cracbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			exps = append(exps, e)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "cracbench: %v\n", err)
			return 1
		}
	}

	var report benchReport
	for _, e := range exps {
		start := time.Now()
		fmt.Fprintf(stderr, "--- running %s: %s\n", e.ID, e.Title)
		tables, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(stderr, "cracbench: %s: %v\n", e.ID, err)
			return 1
		}
		for i, t := range tables {
			t.Fprint(stdout)
			if *outDir != "" {
				name := t.ID
				if len(tables) > 1 {
					name = fmt.Sprintf("%s_%d", t.ID, i)
				}
				f, err := os.Create(filepath.Join(*outDir, name+".csv"))
				if err != nil {
					fmt.Fprintf(stderr, "cracbench: %v\n", err)
					return 1
				}
				t.CSV(f)
				f.Close()
			}
		}
		elapsed := time.Since(start)
		report.Experiments = append(report.Experiments, benchExperiment{
			ID: e.ID, Title: e.Title, ElapsedMS: elapsed.Milliseconds(), Tables: tables,
		})
		fmt.Fprintf(stderr, "--- %s done in %v\n", e.ID, elapsed.Round(time.Millisecond))
	}
	if *benchJSON != "" {
		b, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "cracbench: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*benchJSON, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "cracbench: %v\n", err)
			return 1
		}
	}
	return 0
}
