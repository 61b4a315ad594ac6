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
	"sync"

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
//
// Disturbance is the only per-row state an activation touches: one
// float64 per row. The flip latch is cold state, consulted only once a
// victim reaches TRH, so it lives in a map from latched row to the tick
// its flip was recorded.
type Oracle struct {
	rows int
	trh  float64
	mu   []float64 // mu[d-1] = μ_d for d in [1, distance]
	nras dram.Time // normalizes dwell; 0 until SetNRAS

	disturb []float64
	latched map[int]dram.Time // victim → flip tick, until its next refresh
	flips   []Flip

	acts int64
}

// disturbPool recycles the all-zero disturbance arrays of released
// oracles (*[]float64), so back-to-back runs on the same geometry stop
// allocating and zeroing a fresh array per bank. sync.Pool drops idle
// entries within two GC cycles, so the pool never pins memory a
// long-running process has stopped using.
var disturbPool sync.Pool

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
	// A pooled array of another row count is left to the collector.
	var disturb []float64
	if p, ok := disturbPool.Get().(*[]float64); ok && len(*p) == rows {
		disturb = *p
	} else {
		disturb = make([]float64, rows)
	}
	return &Oracle{
		rows:    rows,
		trh:     float64(trh),
		mu:      mus,
		disturb: disturb,
	}, nil
}

// SetNRAS fixes the device's minimum open-row duration, against which
// dwell is normalized (weight = dwell/nRAS, RowPress §4). Zero (the
// default) disables weighting: every ACT counts 1 regardless of dwell,
// the pre-RowPress model.
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
// (append-style, so a replay loop can recycle one staging buffer across
// ACTs). Each victim is reported at most once per refresh interval (the
// latch clears when the row is refreshed).
func (o *Oracle) AppendActivate(dst []Flip, row int, now dram.Time) []Flip {
	o.checkRow(row)
	return o.AppendActivateRun(dst, []int32{int32(row)}, []dram.Time{now}, nil)
}

// AppendActivateOpen is AppendActivate for an activation that holds its
// row open for dwell picoseconds, weighed as AppendActivateRun weighs a
// dwell column entry.
func (o *Oracle) AppendActivateOpen(dst []Flip, row int, now, dwell dram.Time) []Flip {
	o.checkRow(row)
	return o.AppendActivateRun(dst, []int32{int32(row)}, []dram.Time{now}, []dram.Time{dwell})
}

// checkRow panics on a row outside the bank. The single-ACT entry points
// call it before the row narrows to the run entry's int32 column.
func (o *Oracle) checkRow(row int) {
	if row < 0 || row >= o.rows {
		panic(fmt.Sprintf("hammer: activate row %d out of range [0,%d)", row, o.rows))
	}
}

// AppendActivateRun records a run of ACTs — rows[k] activated at
// times[k] — and appends every victim that flips to dst, in ACT order,
// returning the extended slice. It is the oracle's one disturbance loop:
// the single-ACT entry points are batches of one.
//
// dwells, when non-nil, holds each ACT's open-row time. Under the
// duration-weighted disturbance model (RowPress: disturbance grows with
// open-row time) the ACT's increment scales by dwell/nRAS. Dwell 0 means
// the device minimum and always weighs exactly 1, as does every dwell
// when no nRAS has been configured, so a nil column, an all-zero one and
// an unconfigured nRAS all give bit-identical results. A row out of
// range or a negative dwell panics: callers validate their input.
func (o *Oracle) AppendActivateRun(dst []Flip, rows []int32, times, dwells []dram.Time) []Flip {
	disturb, mu, trh := o.disturb, o.mu, o.trh
	n := len(disturb)
	nras := float64(o.nras) // 0: dwell is not weighed
	for k, r := range rows {
		row := int(r)
		o.checkRow(row)
		w := 1.0
		if dwells != nil {
			dw := dwells[k]
			if dw < 0 {
				panic(fmt.Sprintf("hammer: negative dwell %v", dw))
			}
			if dw != 0 && nras > 0 {
				w = float64(dw) / nras
			}
		}
		for d, m := range mu {
			inc := m * w
			if v := row - d - 1; v >= 0 {
				x := disturb[v] + inc
				disturb[v] = x
				if x >= trh {
					dst = o.latch(dst, v, times[k], x)
				}
			}
			if v := row + d + 1; v < n {
				x := disturb[v] + inc
				disturb[v] = x
				if x >= trh {
					dst = o.latch(dst, v, times[k], x)
				}
			}
		}
	}
	o.acts += int64(len(rows))
	return dst
}

// latch records victim v's flip at now unless the row is already latched
// since its last refresh.
func (o *Oracle) latch(dst []Flip, v int, now dram.Time, x float64) []Flip {
	if _, ok := o.latched[v]; ok {
		return dst
	}
	if o.latched == nil {
		o.latched = make(map[int]dram.Time)
	}
	o.latched[v] = now
	f := Flip{Victim: v, At: now, Disturbance: x}
	o.flips = append(o.flips, f)
	return append(dst, f)
}

// RefreshRow restores row's charge: its disturbance accumulator and flip
// latch are cleared. Call it for every row covered by an auto-refresh, NRR,
// or region refresh.
func (o *Oracle) RefreshRow(row int) {
	if row < 0 || row >= o.rows {
		panic(fmt.Sprintf("hammer: refresh row %d out of range [0,%d)", row, o.rows))
	}
	o.disturb[row] = 0
	if len(o.latched) != 0 {
		delete(o.latched, row)
	}
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
	if len(o.latched) != 0 {
		if at, ok := o.latched[row]; ok && now > at {
			delete(o.latched, row)
		}
	}
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
	clear(o.disturb)
	o.latched = nil
	o.flips = nil
	o.acts = 0
}

// Release resets the oracle and hands its disturbance array to the next
// NewOracle of the same row count. The oracle must not be used after
// Release: its array may already belong to another oracle. A Flips slice
// taken before Release stays valid (it is not recycled).
func (o *Oracle) Release() {
	o.Reset()
	p := o.disturb
	o.disturb = nil
	disturbPool.Put(&p)
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
