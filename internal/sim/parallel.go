package sim

import (
	"context"
	"fmt"
	"hash/fnv"

	"graphene/internal/dram"
	"graphene/internal/faultinject"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// Options configures how a sweep executes. The zero value runs every cell
// on GOMAXPROCS workers; results are identical for any Jobs value, and
// identical to the historical serial sweeps (DESIGN.md §6).
type Options struct {
	// Jobs bounds the number of concurrently simulated cells; 0 uses
	// GOMAXPROCS.
	Jobs int

	// Progress, when non-nil, observes every completed cell (the CLIs pass
	// sched.Reporter(os.Stderr)).
	Progress func(sched.Progress)

	// BaselineStats, when non-nil, receives the baseline-memoization
	// counters once the sweep finishes: Misses is the number of distinct
	// baseline replays, Hits the number of cells that shared one.
	BaselineStats *sched.MemoStats

	// Obs, when non-nil, threads the observability recorder through the
	// whole sweep: the scheduler emits cell lifecycle events, and every
	// memctrl run (cells and memoized baselines alike) reports NRR,
	// scheme-internal, and replay-progress events into it.
	Obs *obs.Recorder

	// Ctx, when non-nil, bounds the whole sweep: cancellation or an
	// expired deadline aborts the pool — in-flight cells drain, queued
	// cells are skipped, and the sweep returns the context's error.
	Ctx context.Context

	// Retry re-runs failed cells per sched.RetryPolicy (the zero value
	// never retries). Caveat: a retried cell re-instantiates its scheme's
	// engines, so retries under a stateful factory (PARA derives engine
	// seeds from a global instantiation counter) trade byte-identity with
	// the serial sweep for forward progress.
	Retry sched.RetryPolicy

	// Fault, when non-nil, arms deterministic fault points in the
	// scheduler workers and in every memctrl replay (cells and baselines
	// alike). See internal/faultinject for the spec grammar.
	Fault *faultinject.Injector

	// Checkpoint, when non-nil, journals each completed cell and restores
	// journaled cells on a restarted sweep instead of re-simulating them,
	// reassembling output identical to an uninterrupted run. Keys include
	// a hash of the sweep's Scale, so a journal written at one
	// configuration is ignored by any other.
	Checkpoint *sched.Checkpoint
}

// sweepPlan flattens a sweep into independent cell jobs — one protected
// memctrl run per (workload, scheme, threshold) — sharing one memoized
// unprotected baseline per workload. Cells write into pre-assembled row
// slots, so output order is fixed at submission time regardless of how
// execution interleaves.
type sweepPlan struct {
	sc    Scale
	obs   *obs.Recorder
	fault *faultinject.Injector
	ckpt  *sched.Checkpoint
	jobs  []sched.Job
	memo  sched.Memo[string, memctrl.Result]
}

func newPlan(sc Scale, opt Options) *sweepPlan {
	return &sweepPlan{sc: sc, obs: opt.Obs, fault: opt.Fault, ckpt: opt.Checkpoint}
}

// cellKey names one cell in a checkpoint journal: a hash of the plan's
// full Scale plus the cell label, so a journal written at one
// configuration (geometry, timing, trace length, seed) can never leak
// stale results into a sweep at another.
func (p *sweepPlan) cellKey(label string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", p.sc)
	return fmt.Sprintf("%016x|%s", h.Sum64(), label)
}

// replay runs one trace under a config: memctrl.Run over a single-use
// generator, so each generator cell gets its own replay, or
// memctrl.RunBlocks over a fresh cursor on a loaded trace's shared blocks,
// which one trace's baseline and cells share.
type replay func(memctrl.Config) (memctrl.Result, error)

// genReplay wraps a single-use generator as a replay.
func genReplay(gen trace.Generator) replay {
	return func(cfg memctrl.Config) (memctrl.Result, error) { return memctrl.Run(cfg, gen) }
}

// baseline returns the memoized unprotected run of workload name. rp is
// called by whichever cell computes the baseline first; the memo's
// single-flight guarantee means that happens exactly once, so a replay
// over a single-use generator is safe to capture.
func (p *sweepPlan) baseline(geo dram.Geometry, name string, rp replay) func() (memctrl.Result, error) {
	return func() (memctrl.Result, error) {
		return p.memo.Do(name, func() (memctrl.Result, error) {
			res, err := rp(memctrl.Config{Geometry: geo, Timing: p.sc.Timing, Obs: p.obs, Fault: p.fault})
			if err != nil {
				return memctrl.Result{}, fmt.Errorf("sim: baseline %s: %w", name, err)
			}
			return res, nil
		})
	}
}

// addCell schedules one protected run. factory is the cell's slot in its
// scheme's ordered handoff (nil for an unprotected spec); base supplies the
// memoized baseline; the measured cell lands in *slot.
func (p *sweepPlan) addCell(geo dram.Geometry, trh int64, spec Spec, factory func(context.Context) mitigation.Factory, wname string, rp replay, base func() (memctrl.Result, error), slot *Cell) {
	label := fmt.Sprintf("%s/%s trh=%d", wname, spec.Name, trh)
	key := p.cellKey(label)
	var prev Cell
	if p.ckpt.Lookup(key, &prev) {
		// Restored from the journal: skip the replay, but still take the
		// scheme's factory turn. A stateful factory (PARA derives each
		// engine's seed from a global instantiation counter) must see the
		// same build sequence as an uninterrupted run, or the cells that
		// DO replay would compute different results and the reassembled
		// sweep would not be byte-identical.
		p.jobs = append(p.jobs, sched.Job{Label: label, Do: func(ctx context.Context) error {
			if factory != nil {
				if _, err := factory(ctx)(); err != nil {
					return err
				}
			}
			*slot = prev
			p.obs.Counter("cells_restored_total").Inc()
			return nil
		}})
		return
	}
	p.jobs = append(p.jobs, sched.Job{Label: label, Do: func(ctx context.Context) error {
		b, err := base()
		if err != nil {
			return err
		}
		var f mitigation.Factory
		if factory != nil {
			f = factory(ctx)
		}
		res, err := rp(memctrl.Config{
			Geometry: geo, Timing: p.sc.Timing,
			Factory: f, TRH: trh, Obs: p.obs, Fault: p.fault,
		})
		if err != nil {
			return fmt.Errorf("sim: %s/%s: %w", wname, spec.Name, err)
		}
		*slot = Cell{
			Scheme:          spec.Name,
			RefreshOverhead: res.RefreshOverhead(),
			Slowdown:        res.SlowdownVs(b),
			VictimRows:      res.RowsVictim,
			NRRCommands:     res.NRRCommands,
			Flips:           len(res.Flips),
		}
		if err := p.ckpt.Record(key, *slot); err != nil {
			return fmt.Errorf("sim: %s: %w", label, err)
		}
		return nil
	}})
}

// run executes the accumulated cells on the pool.
func (p *sweepPlan) run(opt Options) error {
	err := sched.Run(sched.Options{
		Jobs: opt.Jobs, Ctx: opt.Ctx, Progress: opt.Progress,
		Retry: opt.Retry, Fault: opt.Fault, Obs: opt.Obs,
	}, p.jobs)
	if opt.BaselineStats != nil {
		*opt.BaselineStats = p.memo.Stats()
	}
	return err
}

// orderedFactory preserves a stateful mitigation.Factory's serial call
// sequence under parallel execution. PARA's factory derives each bank's
// RNG seed from a closure counter, so the engines a cell receives depend
// on how many the factory built before it; orderedFactory hands cell i its
// engines only after cells 0..i-1 have built theirs, which keeps every
// sweep byte-identical to the serial loop it replaced. Waiting cells
// select on the pool's context, so an aborting sweep cannot deadlock.
//
// This is deadlock-free because sched workers start jobs in submission
// order: when cell i waits for its turn, every earlier cell of the same
// scheme has already started and will either take its turn or fail —
// failure cancels the context and releases every waiter.
type orderedFactory struct {
	factory mitigation.Factory
	turns   []chan struct{} // turns[i] closed when cell i may instantiate
}

func orderFactory(f mitigation.Factory) *orderedFactory {
	return &orderedFactory{factory: f}
}

func orderFactories(schemes []Spec) []*orderedFactory {
	ofs := make([]*orderedFactory, len(schemes))
	for si := range schemes {
		ofs[si] = orderFactory(schemes[si].Factory)
	}
	return ofs
}

// reserve claims the next slot in the serial instantiation order (called
// at plan-build time, in submission order) and returns the per-cell
// factory constructor. nbanks is the number of engines memctrl.Run will
// request — the whole batch is built in one turn, mirroring Run's setup
// loop in the serial sweep.
func (o *orderedFactory) reserve(nbanks int) func(ctx context.Context) mitigation.Factory {
	if o.factory == nil {
		return nil
	}
	idx := len(o.turns)
	turn := make(chan struct{})
	if idx == 0 {
		close(turn)
	}
	o.turns = append(o.turns, turn)
	return func(ctx context.Context) mitigation.Factory {
		var engines []mitigation.Mitigator
		var instErr error
		pos := 0
		return func() (mitigation.Mitigator, error) {
			if engines == nil && instErr == nil {
				select {
				case <-o.turns[idx]:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				engines = make([]mitigation.Mitigator, 0, nbanks)
				for i := 0; i < nbanks; i++ {
					m, err := o.factory()
					if err != nil {
						instErr = err
						break
					}
					engines = append(engines, m)
				}
				// Pass the turn even on error, so successors never block
				// on a cell that cannot take its turn.
				if idx+1 < len(o.turns) {
					close(o.turns[idx+1])
				}
			}
			if instErr != nil {
				return nil, instErr
			}
			m := engines[pos]
			pos++
			return m, nil
		}
	}
}

// profileRows registers one threshold's workload × scheme grid on the plan
// and returns the row slots. bases holds the per-profile memoized
// baselines (shared across thresholds by the scaling sweep).
func profileRows(p *sweepPlan, sc Scale, trh int64, profiles []workload.Profile, schemes []Spec, bases []func() (memctrl.Result, error)) ([]Row, error) {
	ofs := orderFactories(schemes)
	nbanks := sc.Geometry.Banks()
	rows := make([]Row, len(profiles))
	for wi, prof := range profiles {
		rows[wi] = Row{Workload: prof.Name, Cells: make([]Cell, len(schemes))}
		for si, spec := range schemes {
			gen, err := prof.Generate(sc.Geometry, sc.Timing, sc.WorkloadAccesses, sc.Seed)
			if err != nil {
				return nil, err
			}
			p.addCell(sc.Geometry, trh, spec, ofs[si].reserve(nbanks), prof.Name, genReplay(gen), bases[wi], &rows[wi].Cells[si])
		}
	}
	return rows, nil
}

// profileBaselines builds one generator per profile — reused for both the
// row name and the baseline replay — and registers the memoized baselines.
func profileBaselines(p *sweepPlan, sc Scale, profiles []workload.Profile) ([]func() (memctrl.Result, error), error) {
	bases := make([]func() (memctrl.Result, error), len(profiles))
	for wi, prof := range profiles {
		gen, err := prof.Generate(sc.Geometry, sc.Timing, sc.WorkloadAccesses, sc.Seed)
		if err != nil {
			return nil, err
		}
		bases[wi] = p.baseline(sc.Geometry, gen.Name(), genReplay(gen))
	}
	return bases, nil
}

// SweepProfilesOpts is SweepProfiles with explicit execution options.
func SweepProfilesOpts(sc Scale, trh int64, profiles []workload.Profile, schemes []Spec, opt Options) ([]Row, error) {
	plan := newPlan(sc, opt)
	bases, err := profileBaselines(plan, sc, profiles)
	if err != nil {
		return nil, err
	}
	rows, err := profileRows(plan, sc, trh, profiles, schemes, bases)
	if err != nil {
		return nil, err
	}
	if err := plan.run(opt); err != nil {
		return nil, err
	}
	return rows, nil
}

// NormalSweepOpts is NormalSweep with explicit execution options.
func NormalSweepOpts(sc Scale, trh int64, opt Options) ([]Row, error) {
	schemes, err := CounterSchemes(trh, sc)
	if err != nil {
		return nil, err
	}
	return SweepProfilesOpts(sc, trh, workload.Profiles(), schemes, opt)
}

// ScalingNormalOpts is ScalingNormal with explicit execution options. The
// whole (threshold × workload × scheme) grid is flattened into one pool
// run, and each workload's unprotected baseline is replayed once and
// shared across every threshold.
func ScalingNormalOpts(sc Scale, trhs []int64, opt Options) ([]ScalingRow, error) {
	plan := newPlan(sc, opt)
	profiles := ScalingWorkloads()
	bases, err := profileBaselines(plan, sc, profiles)
	if err != nil {
		return nil, err
	}
	perTRH := make([][]Row, len(trhs))
	for ti, trh := range trhs {
		schemes, err := CounterSchemes(trh, sc)
		if err != nil {
			return nil, err
		}
		if perTRH[ti], err = profileRows(plan, sc, trh, profiles, schemes, bases); err != nil {
			return nil, err
		}
	}
	if err := plan.run(opt); err != nil {
		return nil, err
	}
	out := make([]ScalingRow, len(trhs))
	for ti, trh := range trhs {
		out[ti] = average(trh, perTRH[ti])
	}
	return out, nil
}

// adversarialGrid registers one threshold's attack-suite × scheme grid on
// the plan. names/bases are the per-pattern labels and memoized baselines
// (shared across thresholds by the scaling sweep).
func adversarialGrid(p *sweepPlan, geo dram.Geometry, trh int64, schemes []Spec, pats []func() trace.Generator, names []string, bases []func() (memctrl.Result, error)) []Row {
	ofs := orderFactories(schemes)
	nbanks := geo.Banks()
	rows := make([]Row, len(pats))
	for wi, mk := range pats {
		rows[wi] = Row{Workload: names[wi], Cells: make([]Cell, len(schemes))}
		for si, spec := range schemes {
			p.addCell(geo, trh, spec, ofs[si].reserve(nbanks), names[wi], genReplay(mk()), bases[wi], &rows[wi].Cells[si])
		}
	}
	return rows
}

// adversarialBaselines builds one generator per attack pattern — reused
// for both the row name and the baseline replay instead of constructing
// and dropping a generator just for its Name() — and registers the
// memoized baselines.
func adversarialBaselines(p *sweepPlan, geo dram.Geometry, pats []func() trace.Generator) (names []string, bases []func() (memctrl.Result, error)) {
	names = make([]string, len(pats))
	bases = make([]func() (memctrl.Result, error), len(pats))
	for wi, mk := range pats {
		gen := mk()
		names[wi] = gen.Name()
		bases[wi] = p.baseline(geo, names[wi], genReplay(gen))
	}
	return names, bases
}

// singleBank shrinks sc to the single-bank geometry the adversarial
// patterns saturate (the refresh-overhead ratio is bank-local, as in the
// paper's accounting).
func singleBank(sc Scale) Scale {
	oneBank := sc
	oneBank.Geometry = dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: sc.Geometry.RowsPerBank}
	return oneBank
}

// AdversarialSweepOpts is AdversarialSweep with explicit execution options.
func AdversarialSweepOpts(sc Scale, trh int64, opt Options) ([]Row, error) {
	oneBank := singleBank(sc)
	schemes, err := CounterSchemes(trh, oneBank)
	if err != nil {
		return nil, err
	}
	plan := newPlan(oneBank, opt)
	pats := AdversarialPatterns(oneBank)
	names, bases := adversarialBaselines(plan, oneBank.Geometry, pats)
	rows := adversarialGrid(plan, oneBank.Geometry, trh, schemes, pats, names, bases)
	if err := plan.run(opt); err != nil {
		return nil, err
	}
	return rows, nil
}

// ScalingAdversarialOpts is ScalingAdversarial with explicit execution
// options: one pool run over the whole (threshold × pattern × scheme)
// grid, with each pattern's unprotected baseline replayed once and shared
// across every threshold.
func ScalingAdversarialOpts(sc Scale, trhs []int64, opt Options) ([]ScalingRow, error) {
	oneBank := singleBank(sc)
	plan := newPlan(oneBank, opt)
	pats := AdversarialPatterns(oneBank)
	names, bases := adversarialBaselines(plan, oneBank.Geometry, pats)
	perTRH := make([][]Row, len(trhs))
	for ti, trh := range trhs {
		schemes, err := CounterSchemes(trh, oneBank)
		if err != nil {
			return nil, err
		}
		perTRH[ti] = adversarialGrid(plan, oneBank.Geometry, trh, schemes, pats, names, bases)
	}
	if err := plan.run(opt); err != nil {
		return nil, err
	}
	out := make([]ScalingRow, len(trhs))
	for ti, trh := range trhs {
		out[ti] = average(trh, perTRH[ti])
	}
	return out, nil
}
