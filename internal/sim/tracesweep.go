package sim

import (
	"fmt"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/trace"
)

// LoadTraces decodes recorded trace files (text or binary, auto-detected
// by magic) once each into shared columnar blocks (trace.LoadBlocks) and
// returns them with a Scale whose geometry fits every trace:
// sc's geometry when it already covers them, else a single-rank grid grown
// to the maximum bank and row any trace touches. Trace names must be
// distinct — the sweep keys its per-trace memoized baselines by name.
func LoadTraces(sc Scale, paths []string) ([]*trace.Blocks, Scale, error) {
	if len(paths) == 0 {
		return nil, Scale{}, fmt.Errorf("sim: no trace files given")
	}
	traces := make([]*trace.Blocks, len(paths))
	seen := make(map[string]string, len(paths))
	needBanks, needRows := 0, 0
	for i, path := range paths {
		tr, err := trace.LoadBlocks(path)
		if err != nil {
			return nil, Scale{}, fmt.Errorf("sim: %w", err)
		}
		if prev, dup := seen[tr.Name]; dup {
			return nil, Scale{}, fmt.Errorf("sim: traces %s and %s share the name %q (baselines are memoized per name)", prev, path, tr.Name)
		}
		seen[tr.Name] = path
		traces[i] = tr
		b, r := tr.Dims()
		needBanks, needRows = max(needBanks, b), max(needRows, r)
	}
	eff := sc
	if eff.Geometry == (dram.Geometry{}) {
		eff.Geometry = dram.Default()
	}
	if eff.Geometry.Banks() < needBanks || eff.Geometry.RowsPerBank < needRows {
		eff.Geometry = dram.Geometry{
			Channels: 1, RanksPerChan: 1,
			BanksPerRank: max(eff.Geometry.Banks(), needBanks),
			RowsPerBank:  max(eff.Geometry.RowsPerBank, needRows),
		}
	}
	return traces, eff, nil
}

// TraceSweepOpts replays recorded trace files through the counter-scheme
// grid: one Row per trace, one Cell per scheme, each against a memoized
// unprotected baseline of the same trace — the recorded-trace counterpart
// of NormalSweepOpts. Each file decodes once; the baseline and every cell
// replay its shared blocks through memctrl.RunBlocks. All traces share
// one geometry (see LoadTraces), so one scheme line-up sized for that
// geometry serves the whole grid; the effective Scale is returned for
// reporting.
func TraceSweepOpts(sc Scale, trh int64, paths []string, opt Options) ([]Row, Scale, error) {
	traces, eff, err := LoadTraces(sc, paths)
	if err != nil {
		return nil, Scale{}, err
	}
	schemes, err := CounterSchemes(trh, eff)
	if err != nil {
		return nil, Scale{}, err
	}
	plan := newPlan(eff, opt)
	ofs := orderFactories(schemes)
	nbanks := eff.Geometry.Banks()
	rows := make([]Row, len(traces))
	for wi, tr := range traces {
		rp := func(cfg memctrl.Config) (memctrl.Result, error) { return memctrl.RunBlocks(cfg, tr.Source()) }
		base := plan.baseline(eff.Geometry, tr.Name, rp)
		rows[wi] = Row{Workload: tr.Name, Cells: make([]Cell, len(schemes))}
		for si, spec := range schemes {
			plan.addCell(eff.Geometry, trh, spec, ofs[si].reserve(nbanks), tr.Name, rp, base, &rows[wi].Cells[si])
		}
	}
	if err := plan.run(opt); err != nil {
		return nil, Scale{}, err
	}
	return rows, eff, nil
}
