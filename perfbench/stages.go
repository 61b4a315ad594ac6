package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/trace"
)

// schemes is the scheme order every per-layer metric list uses.
var schemes = []string{"graphene", "twice", "cbt", "para"}

// stageInput is one encoded trace the traced run splits into stages.
type stageInput struct {
	data []byte
	// cfg carries geometry and timing; Factory and TRH are set per stage.
	cfg memctrl.Config
	// trh is the oracle threshold the workload's jobs arm (0 = oracle off).
	trh int64
	// factories builds a fresh factory per scheme key the workload runs.
	// Every input of one workload runs the same schemes.
	factories map[string]func() mitigation.Factory
}

// stageReps is how many times each timed stage repeats; the median counts.
const stageReps = 3

// step is one timed stage: fn runs it on input i.
type step struct {
	name string
	fn   func(i int, in stageInput) error
}

// runStages times the stages of every input — decode only, LoadFile, the
// RunBlocks and Run floors, +scheme and +oracle — and then replays each
// scheme once more through the tracer, which yields the self times, call
// counts and Graphene table statistics. Times are summed over inputs and
// divided by their summed ACTs.
func runStages(ins []stageInput, t *tracer, dir string, m map[string]float64) error {
	var acts int64
	traces := make([]*trace.Trace, len(ins))
	paths := make([]string, len(ins))
	for i, in := range ins {
		tr, err := trace.ReadBinary(bytes.NewReader(in.data))
		if err != nil {
			return err
		}
		traces[i] = tr
		acts += int64(len(tr.Accs))
		paths[i] = filepath.Join(dir, fmt.Sprintf("stage-%d.rhtb", i))
		if err := os.WriteFile(paths[i], in.data, 0o644); err != nil {
			return err
		}
	}

	replay := func(in stageInput, f mitigation.Factory, trh int64) error {
		br, err := trace.NewBlockReader(bytes.NewReader(in.data))
		if err != nil {
			return err
		}
		cfg := in.cfg
		cfg.Factory, cfg.TRH = f, trh
		_, err = memctrl.RunBlocks(cfg, br)
		return err
	}
	steps := []step{
		{"decode-only", func(_ int, in stageInput) error { return decodeOnly(in.data) }},
		{"load", func(i int, _ stageInput) error { _, err := trace.LoadFile(paths[i]); return err }},
		{"floor", func(_ int, in stageInput) error { return replay(in, nil, 0) }},
		{"stream-floor", func(i int, in stageInput) error {
			_, err := memctrl.Run(in.cfg, traces[i].Generator())
			return err
		}},
	}
	run := ins[0].schemeKeys()
	for _, s := range run {
		s := s
		steps = append(steps, step{"+" + s, func(_ int, in stageInput) error {
			return replay(in, in.factories[s](), 0)
		}})
	}
	if ins[0].trh > 0 {
		steps = append(steps, step{"+graphene+oracle", func(_ int, in stageInput) error {
			return replay(in, in.factories["graphene"](), in.trh)
		}})
	}

	samples := map[string][]float64{}
	for rep := 0; rep < stageReps; rep++ {
		for _, s := range steps {
			var total time.Duration
			err := t.stageSpan("stage."+s.name, func(int64) error {
				for i, in := range ins {
					t0 := time.Now()
					if err := s.fn(i, in); err != nil {
						return fmt.Errorf("stage %s: %w", s.name, err)
					}
					total += time.Since(t0)
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples[s.name] = append(samples[s.name], float64(total.Nanoseconds())/float64(acts))
		}
	}
	med := func(name string) float64 { return median(samples[name]) }
	floor := med("floor")
	m["trace.decode_only_ns_per_act"] = med("decode-only")
	m["trace.load_ns_per_act"] = med("load")
	m["memctrl.replay_floor_ns_per_act"] = floor
	m["memctrl.stream_floor_ns_per_act"] = med("stream-floor")
	for _, s := range run {
		m["mitigation."+s+".added_ns_per_act"] = med("+"+s) - floor
	}
	if ins[0].trh > 0 {
		m["hammer.oracle_added_ns_per_act"] = med("+graphene+oracle") - med("+graphene")
	}

	// One traced replay per scheme and input, armed like the workload's
	// own jobs.
	for _, s := range run {
		for _, in := range ins {
			cfg := in.cfg
			cfg.Factory, cfg.TRH = in.factories[s](), in.trh
			err := t.stageSpan("stage.traced+"+s, func(id int64) error {
				_, err := t.runTraced(0, id, s, cfg, in.data)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// schemeKeys returns the keys of the schemes in runs, in metric-list order.
func (in stageInput) schemeKeys() []string {
	var run []string
	for _, s := range schemes {
		if in.factories[s] != nil {
			run = append(run, s)
		}
	}
	return run
}

// decodeOnly drains data's blocks columnarly without replaying them.
func decodeOnly(data []byte) error {
	br, err := trace.NewBlockReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	var blk trace.ColBlock
	for {
		blk, err = br.NextCols(blk)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
