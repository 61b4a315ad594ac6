package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/sched"
	"graphene/internal/sim"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// sweepActs is the adversarial trace length (all eight banks together).
const sweepActs = 400_000

// sweepAttack is the rhsweep -sweep trace path: an 8-bank adversarial
// trace written once as a binary file, swept job after job by
// sim.TraceSweepOpts with Jobs = nproc — LoadFile, the memoized
// unprotected baseline, then Graphene, TWiCe, CBT and PARA through
// memctrl.Run with the oracle armed.
type sweepAttack struct {
	o    options
	acts int64
	enc  encoded
	dir  string
	path string
	sc   sim.Scale // the sweep's scale (its geometry grows to fit the trace)

	ref      []sim.Row
	memo     sched.MemoStats
	serialMS float64 // the reference sweep's wall time at Jobs = 1
	graphene []memctrl.Result
	base     []memctrl.Result
}

func (s *sweepAttack) setup() error {
	const banks = 8
	per := s.acts / banks
	gens := make([]trace.Generator, banks)
	for b := 0; b < banks; b++ {
		seed := s.o.seed*banks + int64(b)
		base := benchRows/4 + int(seed%64)*64
		switch b % 4 {
		case 0:
			gens[b] = workload.S2(b, benchRows, 10, 0.2, per, seed)
		case 1:
			gens[b] = workload.ManySided(b, base, 20, per)
		case 2:
			gens[b] = workload.TRRespassPattern(b, base, 10, 0.5, per, seed)
		case 3:
			gens[b] = workload.S4(b, benchRows, benchRows/2, 0.5, per, seed)
		}
	}
	gen, err := workload.Mix("sweep-attack", s.o.seed, gens...)
	if err != nil {
		return err
	}
	if s.enc, err = encode(gen); err != nil {
		return err
	}
	if s.dir, err = scratchDir(s.o.out, "sweep"); err != nil {
		return err
	}
	s.path = filepath.Join(s.dir, "sweep-attack.rhtb")
	if err := os.WriteFile(s.path, s.enc.data, 0o644); err != nil {
		return err
	}
	s.sc = sim.Quick()
	s.sc.Seed = s.o.seed
	return nil
}

func (s *sweepAttack) sweep(jobs int) ([]sim.Row, sched.MemoStats, error) {
	var ms sched.MemoStats
	rows, _, err := sim.TraceSweepOpts(s.sc, benchTRH, []string{s.path}, sim.Options{Jobs: jobs, BaselineStats: &ms})
	return rows, ms, err
}

// reference runs the same sweep serially (Jobs = 1), plus one Graphene and
// one unprotected replay for the simulated per-layer metrics.
func (s *sweepAttack) reference() error {
	t0 := time.Now()
	var err error
	if s.ref, s.memo, err = s.sweep(1); err != nil {
		return err
	}
	s.serialMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if err := checkCells(s.ref); err != nil {
		return err
	}
	in, err := s.stageInput()
	if err != nil {
		return err
	}
	tr, err := trace.LoadFile(s.path)
	if err != nil {
		return err
	}
	cfg := in.cfg
	base, err := memctrl.Run(cfg, tr.Generator())
	if err != nil {
		return err
	}
	cfg.Factory, cfg.TRH = in.factories["graphene"](), benchTRH
	g, err := memctrl.Run(cfg, tr.Generator())
	if err != nil {
		return err
	}
	s.graphene, s.base = []memctrl.Result{g}, []memctrl.Result{base}
	return nil
}

// checkCells fails a sweep whose Graphene cell saw a bit flip.
func checkCells(rows []sim.Row) error {
	for _, r := range rows {
		if c := r.Cells[0]; c.Flips > 0 {
			return fmt.Errorf("%s let %d bits flip on %s", c.Scheme, c.Flips, r.Workload)
		}
	}
	return nil
}

func (s *sweepAttack) corrupt()     { s.ref[0].Cells[0].NRRCommands++ }
func (s *sweepAttack) clients() int { return 1 }

func (s *sweepAttack) close() error {
	if s.dir == "" {
		return nil
	}
	err := os.RemoveAll(s.dir)
	s.dir = ""
	return err
}

func (s *sweepAttack) job(env jobEnv) (jobOut, error) {
	rows, _, err := s.sweep(runtime.NumCPU())
	if err != nil {
		return jobOut{}, err
	}
	// One LoadFile feeds the baseline and four scheme replays.
	out := jobOut{acts: 5 * s.enc.acts}
	if g, w := fmt.Sprintf("%+v", rows), fmt.Sprintf("%+v", s.ref); g != w {
		return out, fmt.Errorf("sweep differs from the serial reference:\n got %s\nwant %s", g, w)
	}
	return out, checkCells(rows)
}

func (s *sweepAttack) sim() simOut {
	out := grapheneSim(s.graphene, s.base)
	out.flips, out.flipFree = 0, 0
	var cells int
	for _, r := range s.ref {
		for _, c := range r.Cells {
			cells++
			out.flips += int64(c.Flips)
			if c.Flips == 0 {
				out.flipFree++
			}
		}
	}
	out.flipFree /= float64(cells)
	g := s.ref[0].Cells[0]
	out.refreshPct = 100 * (1 + g.RefreshOverhead)
	out.timePct = 100 * (1 + g.Slowdown)
	return out
}

// stageInput is the sweep's trace with the sweep's own scheme line-up,
// sized for the geometry sim.LoadTraces derives.
func (s *sweepAttack) stageInput() (stageInput, error) {
	_, eff, err := sim.LoadTraces(s.sc, []string{s.path})
	if err != nil {
		return stageInput{}, err
	}
	factories := map[string]func() mitigation.Factory{}
	for i, key := range schemes {
		i := i
		factories[key] = func() mitigation.Factory {
			specs, err := sim.CounterSchemes(benchTRH, eff)
			if err != nil {
				panic(err) // constant threshold: only a bug can fail here
			}
			return specs[i].Factory
		}
	}
	return stageInput{
		data: s.enc.data, trh: benchTRH, factories: factories,
		cfg: memctrl.Config{Geometry: eff.Geometry, Timing: eff.Timing},
	}, nil
}

func (s *sweepAttack) stages() ([]stageInput, error) {
	in, err := s.stageInput()
	return []stageInput{in}, err
}

func (s *sweepAttack) layers(m map[string]float64, un *phase) {
	encodeLayers(m, s.enc)
	m["sched.jobs_speedup"] = s.serialMS / median(un.latencies())
	m["sim.baseline_memo_hits"] = float64(s.memo.Hits)
}
