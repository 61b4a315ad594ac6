package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// bench is one workload: its inputs, its closed-loop job, the reference its
// outputs are checked against, and the stage runs of its traced run.
type bench interface {
	// setup generates and encodes the inputs and starts any service the
	// jobs talk to, replacing what an earlier setup built. It is timed.
	setup() error
	// reference computes the expected outputs once, through a different
	// public route than the jobs take.
	reference() error
	// corrupt alters the reference so every later job must fail.
	corrupt()
	// clients is the number of closed-loop clients running jobs at once.
	clients() int
	// job runs one job for client c and verifies its output.
	job(env jobEnv) (jobOut, error)
	// sim returns the simulated outcome of the workload's runs.
	sim() simOut
	// stages returns the inputs of the traced run's stage runs.
	stages() ([]stageInput, error)
	// layers adds the workload's own per-layer metrics; un is the traced
	// run's untraced phase.
	layers(m map[string]float64, un *phase)
	close() error
}

// jobEnv is what one job is handed by the closed loop.
type jobEnv struct {
	client int
	t      *tracer // nil in untraced phases
	job    int64   // job id (spans of one job share it)
	root   int64   // the job's root span id
}

// jobOut is what one job reports besides its latency.
type jobOut struct {
	acts  int64
	class string
	// Serve sessions only: the server's own wall time and the time to the
	// first partial report (negative when the session streams none).
	serverMS, firstPartialMS float64
}

// simOut is the simulated outcome of a workload's runs, taken from its
// reference outputs: exact for a given seed.
type simOut struct {
	refreshPct, timePct float64 // Graphene: refresh rows and completion time vs unprotected, %
	flipFree            float64 // share of scheme runs that ended without a bit flip
	flips               int64   // bit flips summed over every scheme run
	maxDisturbance      float64 // Graphene's worst victim accumulator / TRH
	bankBusy            float64 // Graphene: bank busy time / (end time × banks)
}

type jobRecord struct {
	start, end time.Duration // since the phase began
	out        jobOut
}

func (j jobRecord) ms() float64 { return float64(j.end-j.start) / float64(time.Millisecond) }

// phase is one closed-loop measurement.
type phase struct {
	jobs     []jobRecord
	acts     int64
	wall     time.Duration
	failed   int64
	heapPeak uint64 // live heap, see sampleHeap

	allocBytes, gcCycles uint64
	pauseNS              uint64
}

func (p *phase) actsPerSecond() float64 { return float64(p.acts) / p.wall.Seconds() }

// rateWindow is the width of the windows actsPerSecondMedian takes its
// median over.
const rateWindow = 500 * time.Millisecond

// actsPerSecondMedian is the phase's ACT throughput as the median over its
// whole rateWindow-wide windows, each job's ACTs spread evenly over the
// time it ran. Unlike the phase mean, one window slowed by something
// outside the benchmark barely moves it.
func (p *phase) actsPerSecondMedian() float64 {
	n := int(p.wall / rateWindow)
	if n < 3 {
		return p.actsPerSecond()
	}
	acts := make([]float64, n)
	for _, j := range p.jobs {
		dur := float64(j.end - j.start)
		for i := int(j.start / rateWindow); i < n; i++ {
			lo, hi := max(j.start, time.Duration(i)*rateWindow), min(j.end, time.Duration(i+1)*rateWindow)
			if hi <= lo {
				break
			}
			acts[i] += float64(j.out.acts) * float64(hi-lo) / dur
		}
	}
	for i := range acts {
		acts[i] /= rateWindow.Seconds()
	}
	return median(acts)
}

// runPhase runs b's clients in a closed loop: each starts its next job
// only after the previous one returned, until d has elapsed. The phase
// ends when the last job does, so every job started is counted whole.
func runPhase(b bench, d time.Duration, t *tracer, jobIDs *int64, minJobs int) *phase {
	p := &phase{}
	var mu sync.Mutex
	stopHeap := sampleHeap()
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < b.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < minJobs || time.Now().Before(deadline); n++ {
				mu.Lock()
				*jobIDs++
				env := jobEnv{client: c, t: t, job: *jobIDs}
				mu.Unlock()
				t0 := time.Since(start)
				var out jobOut
				var err error
				if t != nil {
					env.root = t.newID()
					c0 := clock()
					out, err = b.job(env)
					t.record(span{ID: env.root, Job: env.job, Name: "job", Start: c0, End: clock()})
				} else {
					out, err = b.job(env)
				}
				t1 := time.Since(start)
				mu.Lock()
				if err != nil {
					p.failed++
					if p.failed <= 3 {
						fmt.Fprintf(os.Stderr, "perfbench: job %d failed: %v\n", env.job, err)
					}
				}
				p.jobs = append(p.jobs, jobRecord{start: t0, end: t1, out: out})
				p.acts += out.acts
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	after := readRuntime()
	p.heapPeak = max(stopHeap(), liveHeapNow())
	p.allocBytes = after.allocBytes - before.allocBytes
	p.gcCycles = after.gcCycles - before.gcCycles
	p.pauseNS = after.pauseNS - before.pauseNS
	return p
}

type runtimeSample struct{ allocBytes, gcCycles, pauseNS uint64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), pauseNS: ms.PauseTotalNs}
}

// sampleHeap samples the live heap — the bytes the most recent GC marked
// live — every few milliseconds, keeping one value per GC cycle, until the
// returned stop is called; stop returns the 90th percentile of those
// values. A high percentile rather than the maximum, because a cycle that
// ends while a job's buffers are briefly reachable reads tens of MB above
// its neighbours.
func sampleHeap() (stop func() uint64) {
	done := make(chan struct{})
	var lives []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var last uint64
		for {
			metrics.Read(s)
			if c := s[1].Value.Uint64(); c != last || lives == nil {
				last = c
				lives = append(lives, float64(s[0].Value.Uint64()))
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		sort.Float64s(lives)
		return uint64(lives[(len(lives)*9+9)/10-1])
	}
}

// liveHeapNow runs a GC and returns the heap it marked live. A heap that
// only grows, such as the daemon's journal, peaks at the end of a phase,
// and sampleHeap alone would read it at whichever earlier cycle the GC
// pacer happened to pick.
func liveHeapNow() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles the tail latency is reported at;
// the highest one with at least tailBeyond samples above it is used.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

const tailBeyond = 10

// tail returns the highest ladder percentile with at least tailBeyond
// samples beyond it, its value (nearest rank), and the count beyond it.
// With too few samples for any rung it falls back to the maximum.
func tail(xs []float64) (pct, value float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	for _, q := range tailLadder {
		rank := int(float64(n)*q/100+0.999999) - 1 // nearest-rank index
		if rank < 0 {
			rank = 0
		}
		if n-1-rank >= tailBeyond {
			return q, s[rank], n - 1 - rank
		}
	}
	return 100, s[n-1], 0
}

// latencies returns the phase's job latencies in ms.
func (p *phase) latencies() []float64 {
	xs := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		xs[i] = j.ms()
	}
	return xs
}

// scratchDir returns (creating it) a per-process scratch directory under out.
func scratchDir(out, name string) (string, error) {
	dir := filepath.Join(out, "tmp", fmt.Sprintf("%s-%d", name, os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}
