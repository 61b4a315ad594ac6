package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"acts_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"ok_frac", "frac"},
	{"sim_refresh_pct", "%"},
	{"sim_completion_pct", "%"},
	{"sim_flip_free_frac", "frac"},
}

// serveClasses are the session classes of serve-journal.
var serveClasses = []string{"resumable", "rowpress"}

// perLayer lists the metrics of a traced run (--trace 1). A layer a
// workload leaves idle reads 0.
func perLayer() []metricDef {
	ms := []metricDef{
		{"trace.decode_ns_per_act", "ns"},
		{"trace.decode_only_ns_per_act", "ns"},
		{"trace.load_ns_per_act", "ns"},
		{"trace.encode_ns_per_act", "ns"},
		{"trace.bytes_per_act", "B"},
		{"memctrl.route_gap_ns_per_act", "ns"},
		{"memctrl.replay_floor_ns_per_act", "ns"},
		{"memctrl.stream_floor_ns_per_act", "ns"},
		{"memctrl.acts_per_block", "count"},
	}
	for _, s := range schemes {
		p := "mitigation." + s + "."
		ms = append(ms,
			metricDef{p + "added_ns_per_act", "ns"},
			metricDef{p + "self_ns_per_act", "ns"},
			metricDef{p + "acts_per_call", "count"},
			metricDef{p + "nrr_per_mact", "count"},
			metricDef{p + "victim_rows_per_mact", "count"},
		)
	}
	ms = append(ms,
		metricDef{"graphene.hit_frac", "frac"},
		metricDef{"graphene.replace_frac", "frac"},
		metricDef{"graphene.spill_frac", "frac"},
		metricDef{"graphene.triggers_per_mact", "count"},
		metricDef{"hammer.oracle_added_ns_per_act", "ns"},
		metricDef{"hammer.max_disturbance_frac", "frac"},
		metricDef{"dram.bank_busy_frac", "frac"},
		metricDef{"sched.jobs_speedup", "x"},
		metricDef{"sim.baseline_memo_hits", "count"},
		metricDef{"sim.flips", "count"},
		metricDef{"sched.journal_bytes_per_act", "B"},
		metricDef{"sched.journal_mb_end", "MB"},
	)
	for _, c := range serveClasses {
		ms = append(ms,
			metricDef{"serve.session_ms_p50." + c, "ms"},
			metricDef{"serve.server_ms_p50." + c, "ms"},
			metricDef{"serve.queue_ms_p50." + c, "ms"},
			metricDef{"serve.overhead_ns_per_act." + c, "ns"},
		)
	}
	return append(ms,
		metricDef{"serve.first_partial_ms_p50", "ms"},
		metricDef{"serve.wire_bytes_per_act", "B"},
		metricDef{"runtime.alloc_bytes_per_act", "B"},
		metricDef{"runtime.gc_per_job", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"bench.tracing_overhead_pct", "%"},
	)
}

// report is the stamped result file one run writes under <out>/results.
type report struct {
	Stamp    stamp     `json:"stamp"`
	Result   output    `json:"result"`
	SetupS   []float64 `json:"setup_s_samples"`
	Jobs     int       `json:"timed_jobs"`
	TailPct  float64   `json:"job_tail_percentile"`
	TailN    int       `json:"job_tail_samples_beyond"`
	JobMS    []float64 `json:"timed_job_ms"` // completion order
	JobStart []float64 `json:"timed_job_start_ms"`
	JobClass []string  `json:"timed_job_class,omitempty"`
	Duration float64   `json:"run_seconds_total"`
}

// stamp identifies where and on what code a result was measured.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Host       string  `json:"host"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Time       string  `json:"time"`
}

// run executes one benchmark invocation and returns its result object.
func run(o options, stdout io.Writer) (output, error) {
	begin := time.Now()
	b, err := newBench(o)
	if err != nil {
		return output{}, err
	}
	defer b.close()

	var setupS []float64
	for i := 0; i < o.setups; i++ {
		// Releasing the previous set-up is not part of setting up.
		if err := b.close(); err != nil {
			return output{}, err
		}
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return output{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: setup %v s\n", o.workload, o.seed, setupS)
	if err := b.reference(); err != nil {
		return output{}, fmt.Errorf("reference: %w", err)
	}
	if o.corruptReference {
		b.corrupt()
	}

	var ids int64
	dur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	warm := runPhase(b, dur(math.Min(0.25*o.seconds, 3)), nil, &ids, 2)
	phases := []*phase{warm}
	m := map[string]float64{}
	var timed *phase
	if !o.trace {
		timed = runPhase(b, dur(o.seconds), nil, &ids, 1)
		phases = append(phases, timed)
		endToEndMetrics(m, b, timed, setupS)
	} else {
		timed = runPhase(b, dur(o.seconds/2), nil, &ids, 1)
		t := newTracer()
		traced := runPhase(b, dur(o.seconds/2), t, &ids, 1)
		phases = append(phases, timed, traced)
		ins, err := b.stages()
		if err != nil {
			return output{}, err
		}
		dir, err := scratchDir(o.out, "stages")
		if err != nil {
			return output{}, err
		}
		err = runStages(ins, t, dir, m)
		os.RemoveAll(dir)
		if err != nil {
			return output{}, err
		}
		layerMetrics(m, b, t, timed, traced)
		spans := filepath.Join(o.out, "spans", o.workload+".jsonl")
		if err := t.writeSpans(spans); err != nil {
			return output{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", spans)
	}

	res := output{Metrics: map[string]metric{}}
	for _, p := range phases {
		res.Attempted += int64(len(p.jobs))
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if !o.trace {
		m["ok_frac"] = 1 - float64(res.Failed)/float64(res.Attempted)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}

	pct, _, beyond := tail(timed.latencies())
	rep := report{
		Stamp:  newStamp(o),
		Result: res, SetupS: setupS, Jobs: len(timed.jobs),
		TailPct: pct, TailN: beyond,
		Duration: time.Since(begin).Seconds(),
	}
	for _, j := range timed.jobs {
		rep.JobMS = append(rep.JobMS, j.ms())
		rep.JobStart = append(rep.JobStart, float64(j.start)/float64(time.Millisecond))
		if j.out.class != "" {
			rep.JobClass = append(rep.JobClass, j.out.class)
		}
	}
	fmt.Fprintf(stdout, "# %s seed %d: %d timed jobs, job tail at p%g with %d samples beyond, %d attempted, %d failed\n",
		o.workload, o.seed, len(timed.jobs), pct, beyond, res.Attempted, res.Failed)
	sb, _ := json.Marshal(rep.Stamp)
	fmt.Fprintf(stdout, "# stamp %s\n", sb)
	if err := writeReport(o, rep); err != nil {
		return output{}, err
	}
	return res, nil
}

// endToEndMetrics fills the untraced run's metrics.
func endToEndMetrics(m map[string]float64, b bench, p *phase, setupS []float64) {
	lat := p.latencies()
	_, tailMS, _ := tail(lat)
	s := b.sim()
	m["acts_per_s"] = p.actsPerSecondMedian()
	m["job_p50_ms"] = median(lat)
	m["job_tail_ms"] = tailMS
	m["setup_s"] = median(setupS)
	m["heap_peak_mb"] = float64(p.heapPeak) / (1 << 20)
	m["sim_refresh_pct"] = s.refreshPct
	m["sim_completion_pct"] = s.timePct
	m["sim_flip_free_frac"] = s.flipFree
}

// layerMetrics fills the traced run's per-layer metrics from the tracer,
// the untraced and traced phases, and the workload itself.
func layerMetrics(m map[string]float64, b bench, t *tracer, un, traced *phase) {
	per := func(x, acts int64) float64 {
		if acts == 0 {
			return 0
		}
		return float64(x) / float64(acts)
	}
	m["trace.decode_ns_per_act"] = per(t.decodeNS, t.decodeActs)
	m["memctrl.route_gap_ns_per_act"] = per(t.routeGapNS, t.decodeActs)
	m["memctrl.acts_per_block"] = per(t.decodeActs, t.decodeBlocks)
	for s, a := range t.schemes {
		p := "mitigation." + s + "."
		m[p+"self_ns_per_act"] = per(a.selfNS, a.acts)
		m[p+"acts_per_call"] = per(a.acts, a.calls)
		m[p+"nrr_per_mact"] = per(a.nrr*1e6, a.acts)
		m[p+"victim_rows_per_mact"] = per(a.victimRows*1e6, a.acts)
	}
	if g := t.schemes["graphene"]; g != nil {
		ts := t.table
		obs := ts.Hits + ts.Replacements + ts.Spills
		m["graphene.hit_frac"] = per(ts.Hits, obs)
		m["graphene.replace_frac"] = per(ts.Replacements, obs)
		m["graphene.spill_frac"] = per(ts.Spills, obs)
		m["graphene.triggers_per_mact"] = per(ts.Triggers*1e6, g.acts)
	}
	s := b.sim()
	m["hammer.max_disturbance_frac"] = s.maxDisturbance
	m["dram.bank_busy_frac"] = s.bankBusy
	m["sim.flips"] = float64(s.flips)
	m["runtime.alloc_bytes_per_act"] = per(int64(un.allocBytes), un.acts)
	m["runtime.gc_per_job"] = per(int64(un.gcCycles), int64(len(un.jobs)))
	m["runtime.gc_pause_ms"] = per(int64(un.pauseNS), int64(len(un.jobs))) / 1e6
	m["bench.tracing_overhead_pct"] = 100 * (un.actsPerSecondMedian()/traced.actsPerSecondMedian() - 1)
	b.layers(m, un)
}

func newStamp(o options) stamp {
	host, _ := os.Hostname()
	return stamp{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Scale: o.scale,
		Host: host, CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit(repoRoot()), Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func writeReport(o options, rep report) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", o.workload, o.seed, boolInt(o.trace), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// repoRoot returns the repository root: the working directory when the
// benchmark runs from the root, its parent when it runs from perfbench.
func repoRoot() string {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err == nil {
		return "."
	}
	return ".."
}

// commit identifies the measured code: the git HEAD when the tree is a git
// repository, else a digest of the Go sources and module files.
func commit(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		name, isRef := strings.CutPrefix(ref, "ref: ")
		if !isRef {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			return strings.TrimSpace(string(id))
		}
		if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if id, n, ok := strings.Cut(line, " "); ok && n == name {
					return id
				}
			}
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
