package main

import (
	"bytes"
	"fmt"
	"time"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/sim"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

const (
	benchTRH  = 12500     // the golden harness threshold every workload runs at
	benchRows = 64 * 1024 // rows per bank of every simulated device

	// replayActs is the mix-high trace length of replay-mix.
	replayActs = 2_000_000
)

// workloadNames lists the workloads in BENCHMARK.json order.
func workloadNames() []string { return []string{"replay-mix", "sweep-attack", "serve-journal"} }

func newBench(o options) (bench, error) {
	scaled := func(n int64) int64 { return max(int64(float64(n)*o.scale), 1024) }
	switch o.workload {
	case "replay-mix":
		return &replayMix{o: o, acts: scaled(replayActs)}, nil
	case "sweep-attack":
		return &sweepAttack{o: o, acts: scaled(sweepActs)}, nil
	case "serve-journal":
		return &serveJournal{o: o, acts: scaled(serveActs)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
}

// encoded is one generated trace in the binary format.
type encoded struct {
	data     []byte
	acts     int64
	encodeNS int64
}

// encode drains gen and encodes it with trace.WriteBinary; only the
// encoding is timed into encodeNS.
func encode(gen trace.Generator) (encoded, error) {
	accs := trace.Collect(gen)
	var buf bytes.Buffer
	t0 := time.Now()
	if _, err := trace.WriteBinary(&buf, trace.FromSlice(gen.Name(), accs)); err != nil {
		return encoded{}, err
	}
	return encoded{data: buf.Bytes(), acts: int64(len(accs)), encodeNS: time.Since(t0).Nanoseconds()}, nil
}

// grapheneFactory builds Graphene (TRH 12,500, k=2) the way the CLIs and
// the daemon do, through sim.BuildScheme.
func grapheneFactory(timing dram.Timing, rowpress bool) func() mitigation.Factory {
	return func() mitigation.Factory {
		f, _, err := sim.BuildScheme("graphene", benchTRH, 2, 1, benchRows, sim.Scale{Timing: timing, Seed: 1, Rowpress: rowpress})
		if err != nil {
			panic(err) // constant arguments: only a bug can fail here
		}
		return f
	}
}

// sameResult reports a mismatch between a job's Result and the reference.
// The %+v form prints every field, nested ones included, and cannot tell
// a nil slice from an empty one — a difference no caller can observe.
func sameResult(got, want memctrl.Result) error {
	if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
		return fmt.Errorf("result differs from the reference: %d ACTs, %d NRRs, %d victim rows, end %d; want %d, %d, %d, %d",
			got.ACTs, got.NRRCommands, got.RowsVictim, got.EndTime, want.ACTs, want.NRRCommands, want.RowsVictim, want.EndTime)
	}
	if len(got.Flips) > 0 {
		return fmt.Errorf("%s let %d bits flip", got.Scheme, len(got.Flips))
	}
	return nil
}

// grapheneSim derives the simulated metrics of Graphene runs (refs) against
// unprotected runs of the same traces (bases).
func grapheneSim(refs, bases []memctrl.Result) simOut {
	var auto, victim int64
	var end, baseEnd, busy, span float64
	s := simOut{flipFree: 1}
	for i, r := range refs {
		auto += r.RowsAuto
		victim += r.RowsVictim
		end += float64(r.EndTime)
		baseEnd += float64(bases[i].EndTime)
		for _, b := range r.PerBank {
			busy += float64(b.BusyTime)
		}
		span += float64(r.EndTime) * float64(len(r.PerBank))
		s.flips += int64(len(r.Flips))
		if len(r.Flips) > 0 {
			s.flipFree = 0
		}
		s.maxDisturbance = max(s.maxDisturbance, r.MaxDisturbance/benchTRH)
	}
	s.refreshPct = 100 * float64(auto+victim) / float64(auto)
	s.timePct = 100 * end / baseEnd
	s.bankBusy = busy / span
	return s
}

// replayMix is the rhtrace -replay path: a 16-bank mix-high trace, encoded
// once, replayed job after job through trace.NewBlockReader and
// memctrl.RunBlocks under Graphene with the oracle armed.
type replayMix struct {
	o    options
	acts int64
	enc  encoded
	cfg  memctrl.Config

	ref, base memctrl.Result
}

func (r *replayMix) setup() error {
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 16, RowsPerBank: benchRows}
	timing := dram.DDR4()
	prof, err := workload.ProfileByName("mix-high")
	if err != nil {
		return err
	}
	gen, err := prof.Generate(geo, timing, r.acts, r.o.seed)
	if err != nil {
		return err
	}
	if r.enc, err = encode(gen); err != nil {
		return err
	}
	r.cfg = memctrl.Config{Geometry: geo, Timing: timing}
	return nil
}

func (r *replayMix) protected() memctrl.Config {
	cfg := r.cfg
	cfg.Factory, cfg.TRH = grapheneFactory(cfg.Timing, false)(), benchTRH
	return cfg
}

// reference replays the trace through the other ingest route: the struct
// decoder (trace.ReadBinary) feeding memctrl.Run's streaming partitioner.
func (r *replayMix) reference() error {
	tr, err := trace.ReadBinary(bytes.NewReader(r.enc.data))
	if err != nil {
		return err
	}
	if r.ref, err = memctrl.Run(r.protected(), tr.Generator()); err != nil {
		return err
	}
	r.base, err = memctrl.Run(r.cfg, tr.Generator())
	return err
}

func (r *replayMix) corrupt()     { r.ref.RowsVictim++ }
func (r *replayMix) clients() int { return 1 }
func (r *replayMix) close() error { return nil }

func (r *replayMix) job(env jobEnv) (jobOut, error) {
	cfg := r.protected()
	var res memctrl.Result
	var err error
	if env.t != nil {
		res, err = env.t.runTraced(env.job, env.root, "graphene", cfg, r.enc.data)
	} else {
		var br *trace.BlockReader
		if br, err = trace.NewBlockReader(bytes.NewReader(r.enc.data)); err == nil {
			res, err = memctrl.RunBlocks(cfg, br)
		}
	}
	if err != nil {
		return jobOut{}, err
	}
	return jobOut{acts: res.ACTs}, sameResult(res, r.ref)
}

func (r *replayMix) sim() simOut {
	return grapheneSim([]memctrl.Result{r.ref}, []memctrl.Result{r.base})
}

func (r *replayMix) stages() ([]stageInput, error) {
	return []stageInput{{
		data: r.enc.data, cfg: r.cfg, trh: benchTRH,
		factories: map[string]func() mitigation.Factory{"graphene": grapheneFactory(r.cfg.Timing, false)},
	}}, nil
}

func (r *replayMix) layers(m map[string]float64, _ *phase) {
	encodeLayers(m, r.enc)
}

// encodeLayers fills the codec's set-up metrics.
func encodeLayers(m map[string]float64, encs ...encoded) {
	var ns, acts, size int64
	for _, e := range encs {
		ns += e.encodeNS
		acts += e.acts
		size += int64(len(e.data))
	}
	m["trace.encode_ns_per_act"] = float64(ns) / float64(acts)
	m["trace.bytes_per_act"] = float64(size) / float64(acts)
}
