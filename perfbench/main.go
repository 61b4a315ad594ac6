// Command perfbench is the repository's end-to-end benchmark. It drives the
// pipeline through the public entry points real users call — the trace codec
// plus memctrl.RunBlocks (rhtrace -replay), sim.TraceSweepOpts (rhsweep
// -sweep trace) and serve.Server/serve.Client (rhsimd) — on inputs generated
// from a seed, checks every output against a reference computed once through
// a different public route, and prints the metrics BENCHMARK.json names.
//
// Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload replay-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics of an
// untraced run; with --trace 1 it carries the per-layer metrics of a separate
// traced run, whose spans are written under <out>/spans. Every run also
// writes a stamped result file under <out>/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string  // directory for result files, span files and scratch inputs
	scale    float64 // multiplies every trace length (the smoke test shrinks it)
	setups   int     // set-up repetitions; setup_s is their median

	// corruptReference alters the reference outputs after they are
	// computed, so every job must fail verification (the smoke test's
	// proof that the check bites).
	corruptReference bool
}

// output is the last stdout line, the shape the benchmark contract fixes.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o := options{out: ".bench_build", scale: 1, setups: 5}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	flag.Parse()
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d jobs failed verification\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// printResult writes the result object as one JSON line.
func printResult(w io.Writer, res output) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
