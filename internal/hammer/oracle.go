// Package hammer provides the ground-truth Row Hammer model against which
// every protection scheme is judged.
//
// The Oracle tracks, for every potential victim row of one bank, the charge
// disturbance accumulated since that row's last refresh, in units of
// "adjacent-aggressor ACT equivalents": an ACT on a row i rows away adds
// μ_i, with μ_1 = 1 (paper §II-B, §III-D). A victim whose accumulator
// reaches the Row Hammer threshold TRH suffers a bit flip. A scheme has a
// false negative exactly when the oracle records a flip; the paper's
// Theorem (§III-C) says Graphene never does.
//
// The conservative double-sided worst case — two aggressors hammering one
// victim, each contributing after only TRH/2 ACTs — falls out naturally:
// both neighbors' ACTs accumulate into the same victim counter.
package hammer

import (
	"fmt"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// Flip records one bit-flip event: a victim row whose disturbance
// accumulator reached TRH before any refresh cleared it.
type Flip struct {
	Victim      int
	At          dram.Time
	Disturbance float64
}

func (f Flip) String() string {
	return fmt.Sprintf("bit flip in row %d at %v (disturbance %.1f)", f.Victim, f.At, f.Disturbance)
}

// Oracle is the per-bank ground-truth disturbance tracker.
type Oracle struct {
	rows     int
	trh      float64
	distance int
	mu       []float64 // mu[d-1] = μ_d for d in [1, distance]
	nras     dram.Time // normalizes dwell; 0 until SetNRAS

	disturb []float64
	flipped []bool      // latched per victim until its next refresh
	flipAt  []dram.Time // tick the latch was set, for refresh-at-flip-tick disambiguation
	flips   []Flip

	acts int64
}

// NewOracle builds an oracle for a bank with the given row count, Row
// Hammer threshold, disturbance reach, and μ model (nil = UniformMu).
func NewOracle(rows int, trh int64, distance int, mu mitigation.MuModel) (*Oracle, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("hammer: rows must be positive, got %d", rows)
	}
	if trh <= 0 {
		return nil, fmt.Errorf("hammer: TRH must be positive, got %d", trh)
	}
	if _, err := mitigation.AmpFactor(distance, mu); err != nil {
		return nil, err
	}
	if mu == nil {
		mu = mitigation.UniformMu
	}
	mus := make([]float64, distance)
	for d := 1; d <= distance; d++ {
		mus[d-1] = mu(d)
	}
	return &Oracle{
		rows:     rows,
		trh:      float64(trh),
		distance: distance,
		mu:       mus,
		disturb:  make([]float64, rows),
		flipped:  make([]bool, rows),
		flipAt:   make([]dram.Time, rows),
	}, nil
}

// SetNRAS fixes the device's minimum open-row duration, against which
// AppendActivateOpen normalizes dwell (weight = dwell/nRAS, RowPress
// §4). Zero (the default) disables weighting: every ACT counts 1
// regardless of dwell, the pre-RowPress model.
func (o *Oracle) SetNRAS(nras dram.Time) {
	if nras < 0 {
		panic(fmt.Sprintf("hammer: negative nRAS %v", nras))
	}
	o.nras = nras
}

// Rows returns the bank's row count.
func (o *Oracle) Rows() int { return o.rows }

// ACTs returns the number of activations observed.
func (o *Oracle) ACTs() int64 { return o.acts }

// AppendActivate records one ACT on row at time now and appends any
// victims that flip as a result to dst, returning the extended slice
// (append-style, so the replay hot path can recycle one staging buffer
// across ACTs). Each victim is reported at most once per refresh interval
// (the latch clears when the row is refreshed).
func (o *Oracle) AppendActivate(dst []Flip, row int, now dram.Time) []Flip {
	return o.AppendActivateOpen(dst, row, now, 0)
}

// AppendActivateOpen is AppendActivate for an activation that holds its
// row open for dwell picoseconds. Under the duration-weighted disturbance
// model (RowPress: disturbance grows with open-row time), the per-ACT
// increment scales by dwell/nRAS. Dwell 0 means the device minimum and
// always weighs exactly 1, as does every dwell when no nRAS has been
// configured — so legacy streams are bit-identical through either entry
// point.
func (o *Oracle) AppendActivateOpen(dst []Flip, row int, now, dwell dram.Time) []Flip {
	if row < 0 || row >= o.rows {
		panic(fmt.Sprintf("hammer: activate row %d out of range [0,%d)", row, o.rows))
	}
	if dwell < 0 {
		panic(fmt.Sprintf("hammer: negative dwell %v", dwell))
	}
	weight := 1.0
	if dwell != 0 && o.nras > 0 {
		weight = float64(dwell) / float64(o.nras)
	}
	o.acts++
	for d := 1; d <= o.distance; d++ {
		for _, v := range [2]int{row - d, row + d} {
			if v < 0 || v >= o.rows {
				continue
			}
			o.disturb[v] += o.mu[d-1] * weight
			if o.disturb[v] >= o.trh && !o.flipped[v] {
				o.flipped[v] = true
				o.flipAt[v] = now
				f := Flip{Victim: v, At: now, Disturbance: o.disturb[v]}
				o.flips = append(o.flips, f)
				dst = append(dst, f)
			}
		}
	}
	return dst
}

// RefreshRow restores row's charge: its disturbance accumulator and flip
// latch are cleared. Call it for every row covered by an auto-refresh, NRR,
// or region refresh.
func (o *Oracle) RefreshRow(row int) {
	if row < 0 || row >= o.rows {
		panic(fmt.Sprintf("hammer: refresh row %d out of range [0,%d)", row, o.rows))
	}
	o.disturb[row] = 0
	o.flipped[row] = false
}

// RefreshRowAt is RefreshRow for a refresh issued at time now. The
// disturbance accumulator always clears, but the flip latch survives a
// refresh at the exact tick the flip was recorded: the flip already
// happened in that instant's episode, and releasing the latch would let
// the fractional-increment model re-report the same flip from residual
// same-tick activity. A refresh strictly after the flip tick clears the
// latch as usual.
func (o *Oracle) RefreshRowAt(row int, now dram.Time) {
	if row < 0 || row >= o.rows {
		panic(fmt.Sprintf("hammer: refresh row %d out of range [0,%d)", row, o.rows))
	}
	o.disturb[row] = 0
	if o.flipped[row] && now <= o.flipAt[row] {
		return
	}
	o.flipped[row] = false
}

// Disturbance returns the victim accumulator for row.
func (o *Oracle) Disturbance(row int) float64 { return o.disturb[row] }

// MaxDisturbance returns the most-disturbed row and its accumulator value —
// the safety-margin metric used in tests (must stay below TRH for sound
// schemes).
func (o *Oracle) MaxDisturbance() (row int, d float64) {
	for i, v := range o.disturb {
		if v > d {
			row, d = i, v
		}
	}
	return row, d
}

// Flips returns every flip recorded so far.
func (o *Oracle) Flips() []Flip { return o.flips }

// FlipCount returns the number of recorded flips.
func (o *Oracle) FlipCount() int { return len(o.flips) }

// Reset clears all accumulators and the flip log.
func (o *Oracle) Reset() {
	for i := range o.disturb {
		o.disturb[i] = 0
		o.flipped[i] = false
		o.flipAt[i] = 0
	}
	o.flips = nil
	o.acts = 0
}

// VictimReport is one row's current disturbance, for reporting.
type VictimReport struct {
	Row         int
	Disturbance float64
}

// TopVictims returns the n most-disturbed rows, highest first — the
// monitoring view a controller would export alongside the scheme's own
// counters.
func (o *Oracle) TopVictims(n int) []VictimReport {
	if n <= 0 {
		return nil
	}
	top := make([]VictimReport, 0, n+1)
	for row, d := range o.disturb {
		// A full list skips every row that would not enter it.
		if d == 0 || len(top) == n && d <= top[n-1].Disturbance {
			continue
		}
		// Insertion into the small sorted slice.
		i := len(top)
		for i > 0 && top[i-1].Disturbance < d {
			i--
		}
		top = append(top, VictimReport{})
		copy(top[i+1:], top[i:])
		top[i] = VictimReport{Row: row, Disturbance: d}
		if len(top) > n {
			top = top[:n]
		}
	}
	return top
}
