// Package twice implements TWiCe (Lee et al., ISCA 2019), the
// state-of-the-art counter-based scheme the paper compares against (§II-C):
// per-row time-window counters with periodic pruning.
//
// TWiCe allocates a table entry per activated row. Every pruning interval
// (tREFI) each entry ages by one "life"; entries whose activation count has
// fallen behind life × th_PI are pruned — they can no longer reach the Row
// Hammer threshold within the window, because the per-interval activation
// budget bounds how fast any row's count can grow. An entry whose count
// reaches th_RH = TRH/4 triggers a victim refresh (the same double-sided +
// refresh-phase-uncertainty factor of 4 as Graphene's k = 1 derivation).
//
// Guarantee sketch: a row pruned at life L had fewer than L·th_PI ACTs, and
// Σ of pruned segment lives is at most tREFW/tREFI, so pruned segments
// contribute < th_RH; the live segment triggers a refresh at th_RH. Any
// row therefore gets < 2·th_RH = TRH/2 un-refreshed ACTs per window, and at
// most TRH/2 per aggressor across the two windows spanning a victim's
// refresh — below TRH even when double-sided.
package twice

import (
	"fmt"
	"math"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// Config selects a TWiCe instance for one bank.
type Config struct {
	TRH      int64       // Row Hammer threshold
	Distance int         // victim refresh reach (±n); default 1
	Timing   dram.Timing // zero value = dram.DDR4()
	Rows     int         // rows per bank; default 64K
	// MaxEntries caps the table. 0 derives the analytic bound (see
	// Params.MaxEntries). On overflow TWiCe refreshes the evicted row's
	// victims so the guarantee survives.
	MaxEntries int

	// Rowpress makes the per-row counter duration-aware: an ACT whose
	// open-row dwell exceeds NRAS adds mitigation.RowpressIncrement(dwell,
	// NRAS, RowpressIncrementTicks) instead of 1. Off (the default),
	// dwell columns are ignored.
	Rowpress bool

	// RowpressIncrementTicks is the open-row time per extra increment;
	// zero defaults to NRAS.
	RowpressIncrementTicks dram.Time

	// NRAS is the device's minimum open-row time; zero defaults to
	// Timing.NRAS().
	NRAS dram.Time
}

func (c Config) withDefaults() Config {
	if c.Timing == (dram.Timing{}) {
		c.Timing = dram.DDR4()
	}
	if c.Rows == 0 {
		c.Rows = 64 * 1024
	}
	if c.Distance == 0 {
		c.Distance = 1
	}
	if c.NRAS == 0 {
		c.NRAS = c.Timing.NRAS()
	}
	if c.RowpressIncrementTicks == 0 {
		c.RowpressIncrementTicks = c.NRAS
	}
	return c
}

// Params are the derived TWiCe operating parameters.
type Params struct {
	ThRH       int64   // victim-refresh threshold (TRH/4)
	ThPI       float64 // pruning slope: min count per interval of life
	Intervals  int64   // pruning intervals per refresh window (tREFW/tREFI)
	MaxEntries int     // table capacity

	AddrBits  int // CAM bits per entry (row address + valid)
	CountBits int // SRAM bits per entry: activation count
	LifeBits  int // SRAM bits per entry: life
}

// Derive computes the TWiCe parameters. The table capacity uses the
// harmonic cohort bound: at most A/th_PI entries can be alive at each life
// value L ≥ 1 (A = max ACTs per tREFI), summed as (A/th_PI)·(1 + ln N_int),
// plus A entries allocated in the current interval. This reproduces the
// order of magnitude of the paper's Table IV TWiCe row (~1.2K entries per
// bank at TRH = 50K).
func (c Config) Derive() (Params, error) {
	c = c.withDefaults()
	if c.TRH <= 0 {
		return Params{}, fmt.Errorf("twice: TRH must be positive, got %d", c.TRH)
	}
	if err := c.Timing.Validate(); err != nil {
		return Params{}, err
	}
	if c.NRAS < 0 || c.RowpressIncrementTicks < 0 {
		return Params{}, fmt.Errorf("twice: negative RowPress parameter (NRAS %v, increment ticks %v)", c.NRAS, c.RowpressIncrementTicks)
	}
	thRH := c.TRH / 4
	if thRH < 1 {
		return Params{}, fmt.Errorf("twice: TRH %d too small", c.TRH)
	}
	intervals := c.Timing.TREFW / c.Timing.TREFI
	thPI := float64(thRH) / float64(intervals)
	actsPerInterval := float64(c.Timing.MaxACTs(c.Timing.TREFI))

	maxEntries := c.MaxEntries
	if maxEntries == 0 {
		perCohort := actsPerInterval / thPI
		maxEntries = int(math.Ceil(perCohort*(1+math.Log(float64(intervals))) + actsPerInterval))
	}

	return Params{
		ThRH:       thRH,
		ThPI:       thPI,
		Intervals:  int64(intervals),
		MaxEntries: maxEntries,
		AddrBits:   mitigation.Bits(c.Rows) + 1, // +1 valid bit
		CountBits:  mitigation.Bits(int(thRH) + 1),
		LifeBits:   mitigation.Bits(int(intervals) + 1),
	}, nil
}

type entry struct {
	count int64
	life  int64
}

// TWiCe is the per-bank engine. It implements mitigation.Mitigator.
type TWiCe struct {
	cfg    Config
	params Params

	table map[int]*entry

	refreshes int64
	prunes    int64
	overflows int64
}

var _ mitigation.Mitigator = (*TWiCe)(nil)

// New builds a TWiCe engine from cfg.
func New(cfg Config) (*TWiCe, error) {
	cfg = cfg.withDefaults()
	p, err := cfg.Derive()
	if err != nil {
		return nil, err
	}
	return &TWiCe{cfg: cfg, params: p, table: make(map[int]*entry)}, nil
}

// Name implements mitigation.Mitigator.
func (t *TWiCe) Name() string { return "twice" }

// Params returns the derived parameters.
func (t *TWiCe) Params() Params { return t.params }

// Live returns the current number of valid entries.
func (t *TWiCe) Live() int { return len(t.table) }

// VictimRefreshes returns the number of victim refreshes issued.
func (t *TWiCe) VictimRefreshes() int64 { return t.refreshes }

// Prunes returns the number of pruned entries.
func (t *TWiCe) Prunes() int64 { return t.prunes }

// Overflows returns how many allocations found the table full.
func (t *TWiCe) Overflows() int64 { return t.overflows }

// AppendOnActivate implements mitigation.Mitigator as a batch of one.
func (t *TWiCe) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	rows, nows := [1]int32{int32(row)}, [1]dram.Time{now}
	dst, _ = t.AppendOnActivateBatch(dst, rows[:], nows[:], nil)
	return dst
}

// AppendOnActivateBatch implements mitigation.Mitigator with one fused
// loop: the table map and threshold load once per run, and the loop stops
// after the first ACT that issues a refresh (threshold hit or overflow),
// per the batch contract. Each ACT adds its counter increment: 1, or under
// Config.Rowpress mitigation.RowpressIncrement of its dwell, so a
// long-open aggressor reaches th_RH in proportionally fewer ACTs —
// matching how its RowPress disturbance grows. A freshly allocated entry
// never triggers on a first observation of 1; a weighted first
// observation that already reaches th_RH does trigger, because those
// skipped increments would otherwise be charge the guarantee never sees.
func (t *TWiCe) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	if !t.cfg.Rowpress {
		dwell = nil
	}
	table, thRH := t.table, t.params.ThRH
	for i, r := range rows {
		row := int(r)
		e, ok := table[row]
		inc := int64(1)
		if dwell != nil {
			inc = mitigation.RowpressIncrement(dwell[i], t.cfg.NRAS, t.cfg.RowpressIncrementTicks)
		}
		if ok {
			if e.count += inc; e.count < thRH {
				continue
			}
		} else {
			if len(table) >= t.params.MaxEntries {
				// Table overflow: conservatively treat the new row as a
				// potential aggressor — refresh its victims instead of
				// tracking it. This keeps the no-false-negative guarantee
				// at the price of extra refreshes (TWiCe's sizing makes
				// this unreachable in practice; the counter records it).
				t.overflows++
				t.refreshes++
				return append(dst, mitigation.VictimRefresh{Aggressor: row, Distance: t.cfg.Distance}), i + 1
			}
			e = &entry{count: inc}
			table[row] = e
			if inc < max(thRH, 2) { // a first observation of 1 never triggers
				continue
			}
		}
		// Victim refresh; the entry restarts with clean neighbors.
		e.count = 0
		e.life = 0
		t.refreshes++
		return append(dst, mitigation.VictimRefresh{Aggressor: row, Distance: t.cfg.Distance}), i + 1
	}
	return dst, len(rows)
}

// AppendTick implements mitigation.Mitigator: one pruning pass per tREFI.
// Entries whose count lags life·th_PI can no longer reach th_RH in this
// window and are dropped (§II-C "maximum frequency of ACTs is bounded ...
// by DRAM timing parameters").
func (t *TWiCe) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	for row, e := range t.table {
		e.life++
		if float64(e.count) < float64(e.life)*t.params.ThPI {
			delete(t.table, row)
			t.prunes++
		}
	}
	return dst
}

// Reset implements mitigation.Mitigator.
func (t *TWiCe) Reset() {
	clear(t.table)
	t.refreshes = 0
	t.prunes = 0
	t.overflows = 0
}

// Cost implements mitigation.Mitigator: address CAM plus count/life SRAM
// per entry (Table IV's TWiCe row structure).
func (t *TWiCe) Cost() mitigation.HardwareCost {
	return mitigation.HardwareCost{
		Entries:  t.params.MaxEntries,
		CAMBits:  t.params.MaxEntries * t.params.AddrBits,
		SRAMBits: t.params.MaxEntries * (t.params.CountBits + t.params.LifeBits),
	}
}

// Factory returns a mitigation.Factory building identical TWiCe engines.
func Factory(cfg Config) mitigation.Factory {
	return func() (mitigation.Mitigator, error) { return New(cfg) }
}
