// Package para implements PARA (Kim et al., ISCA 2014), the representative
// probabilistic Row Hammer mitigation the paper compares against (§II-C,
// §V-A): on every ACT, with probability p, one adjacent row (chosen
// uniformly from the two sides) is refreshed. Each victim is therefore
// refreshed with probability p/2 per aggressor ACT, matching the failure
// analysis of the paper's footnote 2.
//
// The ±n extension of §V-D uses per-distance probabilities p_1 … p_n.
package para

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// Config selects a PARA instance for one bank.
type Config struct {
	// Probabilities[d-1] is the chance that an ACT triggers a refresh of a
	// row d rows away (one side chosen at random). A single-element slice
	// reproduces classic PARA.
	Probabilities []float64

	// Rows is the number of rows in the guarded bank (victims outside the
	// bank are dropped). Defaults to 64K.
	Rows int

	// Seed makes the scheme deterministic for reproducible experiments.
	Seed int64

	// Rowpress makes the probabilistic draw duration-aware: an ACT whose
	// open-row dwell exceeds NRAS repeats the per-distance Bernoulli
	// draws mitigation.RowpressIncrement(dwell, NRAS,
	// RowpressIncrementTicks) times, so the per-ACT refresh probability
	// scales with open-row time the way the oracle's disturbance does.
	// Off (the default), dwell columns are ignored and the RNG draw order
	// is exactly the legacy scheme's.
	Rowpress bool

	// RowpressIncrementTicks is the open-row time per extra draw round;
	// zero defaults to NRAS.
	RowpressIncrementTicks dram.Time

	// NRAS is the device's minimum open-row time; zero defaults to the
	// DDR4 tRAS.
	NRAS dram.Time
}

// Classic returns the configuration for original ±1 PARA with refresh
// probability p (e.g. 0.00145 for near-complete protection at TRH = 50K,
// §V-A).
func Classic(p float64, rows int, seed int64) Config {
	return Config{Probabilities: []float64{p}, Rows: rows, Seed: seed}
}

// Para is the per-bank engine. It implements mitigation.Mitigator.
type Para struct {
	cfg Config
	rng *rand.Rand

	// victimCells backs the single-row Rows slices of appended refreshes —
	// one cell per protected distance, recycled every AppendOnActivate
	// (API v2 scratch-ownership contract, DESIGN.md §9).
	victimCells []int

	// fired marks distances that already refreshed during the current
	// ACT's draw rounds (batch scratch).
	fired []bool

	refreshes int64
}

var _ mitigation.Mitigator = (*Para)(nil)

// New builds a PARA engine from cfg.
func New(cfg Config) (*Para, error) {
	if len(cfg.Probabilities) == 0 {
		return nil, fmt.Errorf("para: at least one refresh probability required")
	}
	for d, p := range cfg.Probabilities {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("para: probability p_%d = %g out of [0, 1]", d+1, p)
		}
	}
	if cfg.Rows == 0 {
		cfg.Rows = 64 * 1024
	}
	if cfg.Rows < 0 {
		return nil, fmt.Errorf("para: rows must be positive, got %d", cfg.Rows)
	}
	if cfg.NRAS < 0 || cfg.RowpressIncrementTicks < 0 {
		return nil, fmt.Errorf("para: negative RowPress parameter (NRAS %v, increment ticks %v)", cfg.NRAS, cfg.RowpressIncrementTicks)
	}
	if cfg.NRAS == 0 {
		cfg.NRAS = dram.DDR4().NRAS()
	}
	if cfg.RowpressIncrementTicks == 0 {
		cfg.RowpressIncrementTicks = cfg.NRAS
	}
	return &Para{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		victimCells: make([]int, len(cfg.Probabilities)),
		fired:       make([]bool, len(cfg.Probabilities)),
	}, nil
}

// Name implements mitigation.Mitigator. Classic ±1 PARA keeps the
// historical "para-<p>" label; a multi-distance configuration lists every
// per-distance probability ("para-0.0015+0.0007" for ±2), so a ±n sweep
// row can no longer be mistaken for classic PARA at p_1.
func (p *Para) Name() string {
	if len(p.cfg.Probabilities) == 1 {
		return fmt.Sprintf("para-%g", p.cfg.Probabilities[0])
	}
	parts := make([]string, len(p.cfg.Probabilities))
	for d, prob := range p.cfg.Probabilities {
		parts[d] = strconv.FormatFloat(prob, 'g', -1, 64)
	}
	return "para-" + strings.Join(parts, "+")
}

// VictimRefreshes returns the number of rows refreshed so far.
func (p *Para) VictimRefreshes() int64 { return p.refreshes }

// AppendOnActivate implements mitigation.Mitigator as a batch of one: for
// every protected distance d, with probability p_d it refreshes one of the
// two rows d away. The appended Rows slices alias p's recycled victim
// cells and are valid only until the next call.
func (p *Para) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	rows, nows := [1]int32{int32(row)}, [1]dram.Time{now}
	dst, _ = p.AppendOnActivateBatch(dst, rows[:], nows[:], nil)
	return dst
}

// AppendOnActivateBatch implements mitigation.Mitigator with one fused
// loop: the probability table, RNG, and bank bound load once per run
// instead of once per ACT. Each ACT runs one round of per-distance draws —
// or, under Config.Rowpress, mitigation.RowpressIncrement rounds of its
// dwell — each round in the same order, so a seeded replay draws the RNG
// identically however the run is split. A distance fires at most once per
// ACT: its appended refresh aliases the recycled victim cell, so a second
// hit must not rewrite it (and a double refresh of the same neighborhood
// buys nothing).
func (p *Para) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	if !p.cfg.Rowpress {
		dwell = nil
	}
	probs, rng, nrows, fired := p.cfg.Probabilities, p.rng, p.cfg.Rows, p.fired
	for i, r := range rows {
		row := int(r)
		draws := int64(1)
		if dwell != nil {
			draws = mitigation.RowpressIncrement(dwell[i], p.cfg.NRAS, p.cfg.RowpressIncrementTicks)
		}
		pre := len(dst)
		for ; draws > 0; draws-- {
			for d, prob := range probs {
				if prob == 0 || rng.Float64() >= prob {
					continue
				}
				victim := row + (d + 1)
				if rng.Intn(2) == 0 {
					victim = row - (d + 1)
				}
				if victim < 0 || victim >= nrows || fired[d] {
					continue
				}
				fired[d] = true
				p.refreshes++
				p.victimCells[d] = victim
				dst = append(dst, mitigation.VictimRefresh{Rows: p.victimCells[d : d+1 : d+1]})
			}
		}
		if len(dst) > pre {
			// Only an append sets fired, and an append ends the batch, so
			// one clear here leaves it clean for every later ACT.
			clear(fired)
			return dst, i + 1
		}
	}
	return dst, len(rows)
}

// AppendTick implements mitigation.Mitigator; PARA takes no refresh-time
// action.
func (p *Para) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	return dst
}

// Reset implements mitigation.Mitigator: PARA is stateless apart from its
// RNG, which is reseeded for reproducibility.
func (p *Para) Reset() {
	p.rng = rand.New(rand.NewSource(p.cfg.Seed))
	p.refreshes = 0
}

// Cost implements mitigation.Mitigator: PARA keeps no tracking state.
func (p *Para) Cost() mitigation.HardwareCost { return mitigation.HardwareCost{} }

// Factory returns a mitigation.Factory; each bank gets an independent RNG
// stream derived from the base seed.
func Factory(cfg Config) mitigation.Factory {
	next := cfg.Seed
	return func() (mitigation.Mitigator, error) {
		c := cfg
		c.Seed = next
		next++
		return New(c)
	}
}
