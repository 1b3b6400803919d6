// Command perfbench is mevscope's repository benchmark: one process that
// builds a seeded world, drives the program through its public Go API on
// one of four workloads (study, analyze, follow, serve), checks every
// output, and prints the metrics named in BENCHMARK.json as the last line
// of its standard output.
//
//	go run . --workload analyze --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// records spans around every public call (nesting the program's own spans
// under them), prints the per-layer metrics, and writes a Chrome trace and
// a per-layer table under .perfbench/out. See README.md for the workloads,
// the metric map and the environment the numbers assume.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: study, analyze, follow or serve")
		seed     = flag.Int64("seed", 1, "seed the world and every generated input derive from")
		seconds  = flag.Int("seconds", 10, "how long the measured phase runs")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		Workload: *workload,
		Seed:     *seed,
		Budget:   time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		Scale:    benchScale,
		Root:     ".",
		Out:      filepath.Join(".perfbench", "out"),
	}
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printResult writes the run record, then the result object as the last
// line of standard output.
func printResult(w io.Writer, res *result) error {
	rec, err := json.Marshal(res.Record)
	if err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, out)
	return err
}
