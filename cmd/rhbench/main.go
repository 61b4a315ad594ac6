// Command rhbench converts `go test -bench` output into machine-readable
// JSON, so CI and EXPERIMENTS.md tables consume benchmark numbers without
// scraping free text. It reads the bench output on stdin (or -i), parses
// every result line — including -benchmem columns and custom
// b.ReportMetric units — and writes one JSON document.
//
// Usage:
//
//	go test -run xxx -bench 'HotPath' -benchmem ./internal/memctrl | rhbench -o BENCH_replay.json
//	rhbench -i bench.txt -assert-zero-allocs 'HotPath'   # gate: allocs/op must be 0
//	rhbench -i bench.txt -assert-speedup 'decode-blocks:parse-text:10'   # gate: ≥10x faster
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var (
		in      = flag.String("i", "", "bench output file to read (default stdin)")
		out     = flag.String("o", "", "JSON output file (default stdout)")
		assert  = flag.String("assert-zero-allocs", "", "regexp of benchmark names whose allocs/op must be exactly 0")
		speedup = flag.String("assert-speedup", "", "FAST:SLOW:MIN — benchmark FAST's ns/op must beat SLOW's by at least MINx")
		minGate = flag.String("assert-min", "", "PATTERN:UNIT:MIN — the matched benchmark's metric must be at least MIN (best of -count reps)")
		maxGate = flag.String("assert-max", "", "PATTERN:UNIT:MAX — the matched benchmark's metric must be at most MAX (best of -count reps)")
	)
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rhbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}

	report, err := Parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rhbench:", err)
		os.Exit(1)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "rhbench: no benchmark results in input")
		os.Exit(1)
	}

	data, err := report.MarshalIndent()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rhbench:", err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "rhbench:", err)
		os.Exit(1)
	}

	if *assert != "" {
		if err := report.AssertZeroAllocs(*assert); err != nil {
			fmt.Fprintln(os.Stderr, "rhbench:", err)
			os.Exit(1)
		}
	}
	if *speedup != "" {
		if err := report.AssertSpeedup(*speedup); err != nil {
			fmt.Fprintln(os.Stderr, "rhbench:", err)
			os.Exit(1)
		}
	}
	if *minGate != "" {
		if err := report.AssertMetricMin(*minGate); err != nil {
			fmt.Fprintln(os.Stderr, "rhbench:", err)
			os.Exit(1)
		}
	}
	if *maxGate != "" {
		if err := report.AssertMetricMax(*maxGate); err != nil {
			fmt.Fprintln(os.Stderr, "rhbench:", err)
			os.Exit(1)
		}
	}
}
