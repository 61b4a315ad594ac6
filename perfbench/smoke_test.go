package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at a tiny size and parses the printed result
// line, the way a caller of the command reads it.
func runTiny(t *testing.T, workload string, traced, corrupt bool) output {
	t.Helper()
	o := options{
		workload: workload, seed: 7, seconds: 0.2, trace: traced,
		out: t.TempDir(), scale: 0.02, setups: 1, corruptReference: corrupt,
	}
	var stdout bytes.Buffer
	res, err := run(o, &stdout)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if err := printResult(&stdout, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var printed output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &printed); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	return printed
}

// TestSmokeEveryMetricPrinted runs each workload untraced and traced at a
// tiny size and checks that exactly the metrics BENCHMARK.json names are
// printed, each with its unit, and that every job verified.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloadNames()))
	}
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res := runTiny(t, w.Name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s printed in %q, BENCHMARK.json says %q", w.Name, traced, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: printed metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
		}
	}
}

// TestSmokeAlteredReferenceFails alters each workload's reference after it
// is computed: every job must then fail verification.
func TestSmokeAlteredReferenceFails(t *testing.T) {
	for _, w := range workloadNames() {
		res := runTiny(t, w, false, true)
		if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("%s: altered reference: correct=%v attempted=%d failed=%d; want every job failed",
				w, res.Correct, res.Attempted, res.Failed)
		}
		if got := res.Metrics["ok_frac"].Value; got != 0 {
			t.Errorf("%s: altered reference: ok_frac = %g, want 0", w, got)
		}
	}
}
