// Package cbt implements the Counter-Based Tree scheme (Seyedzadeh et al.,
// CAL 2017 / ISCA 2018) that the paper evaluates as CBT-128 … CBT-4096
// (§II-C, §V).
//
// CBT starts with a single counter covering every row of the bank. When a
// counter's count reaches the split threshold of its tree level and a free
// counter remains in the pool, it splits into two children, each covering
// half of the parent's row range; both children inherit the parent's count
// (any of their rows may have contributed all of it — the conservative,
// no-false-negative choice). When any counter reaches the last-level
// threshold — derived from the Row Hammer threshold — every victim of the
// rows it covers is refreshed: rows/2^level + 2 rows when rows covered by a
// counter are physically contiguous, or twice the covered rows when the
// device remaps addresses internally (§II-C). Counters reset every tREFW.
//
// Split thresholds follow a linear schedule S_l = T_last·(l+1)/levels, so a
// freshly split child (inheriting count S_l) sits below its own level's
// threshold S_{l+1} and no split cascades.
package cbt

import (
	"fmt"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// Config selects a CBT instance for one bank.
type Config struct {
	TRH      int64 // Row Hammer threshold
	Counters int   // counter-pool size (128 for the paper's CBT-128)
	Levels   int   // tree depth; 0 derives log2(Counters)+3 (paper: CBT-128 has 10 levels)
	Rows     int   // rows per bank; default 64K
	Timing   dram.Timing
	// AssumeRemapped drops the physical-contiguity assumption: a trigger
	// refreshes 2× the covered rows instead of covered+2 (§II-C).
	AssumeRemapped bool
	// Distance is the victim reach used for the +2 boundary rows; default 1.
	Distance int

	// Rowpress makes the tree counters duration-aware: an ACT whose
	// open-row dwell exceeds NRAS adds mitigation.RowpressIncrement(dwell,
	// NRAS, RowpressIncrementTicks) instead of 1 to the covering counter.
	// Off (the default), dwell columns are ignored.
	Rowpress bool

	// RowpressIncrementTicks is the open-row time per extra increment;
	// zero defaults to NRAS.
	RowpressIncrementTicks dram.Time

	// NRAS is the device's minimum open-row time; zero defaults to
	// Timing.NRAS().
	NRAS dram.Time
}

func (c Config) withDefaults() Config {
	if c.Counters == 0 {
		c.Counters = 128
	}
	if c.Levels == 0 {
		c.Levels = mitigation.Bits(c.Counters) + 3
	}
	if c.Rows == 0 {
		c.Rows = 64 * 1024
	}
	if c.Timing == (dram.Timing{}) {
		c.Timing = dram.DDR4()
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

// node is one live counter covering rows [lo, hi).
type node struct {
	lo, hi int
	level  int
	count  int64
}

// CBT is the per-bank engine. It implements mitigation.Mitigator.
type CBT struct {
	cfg    Config
	tLast  int64
	splits []int64 // split threshold per level

	nodes []node // live counters ordered by lo (disjoint cover of the bank)

	// regionScratch backs the explicit Rows list of a region-refresh
	// trigger. CBT owns and recycles it across triggers (API v2 contract,
	// DESIGN.md §9): the appended refresh is valid only until the next
	// AppendOnActivate/Reset call and must be consumed, not retained.
	regionScratch []int

	windowEnd dram.Time
	window    dram.Time

	refreshes  int64 // trigger events
	rowsRefr   int64 // rows refreshed by triggers
	splitCount int64
}

var _ mitigation.Mitigator = (*CBT)(nil)

// New builds a CBT engine from cfg.
func New(cfg Config) (*CBT, error) {
	cfg = cfg.withDefaults()
	if cfg.TRH <= 0 {
		return nil, fmt.Errorf("cbt: TRH must be positive, got %d", cfg.TRH)
	}
	if cfg.Counters < 1 {
		return nil, fmt.Errorf("cbt: need at least one counter, got %d", cfg.Counters)
	}
	if cfg.Levels < 1 {
		return nil, fmt.Errorf("cbt: need at least one level, got %d", cfg.Levels)
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if cfg.NRAS < 0 || cfg.RowpressIncrementTicks < 0 {
		return nil, fmt.Errorf("cbt: negative RowPress parameter (NRAS %v, increment ticks %v)", cfg.NRAS, cfg.RowpressIncrementTicks)
	}
	tLast := cfg.TRH / 4 // same double-sided + window-phase factor as §III-B
	if tLast < int64(cfg.Levels) {
		return nil, fmt.Errorf("cbt: TRH %d too small for %d levels", cfg.TRH, cfg.Levels)
	}
	c := &CBT{cfg: cfg, tLast: tLast, window: cfg.Timing.TREFW}
	c.splits = make([]int64, cfg.Levels)
	for l := 0; l < cfg.Levels; l++ {
		c.splits[l] = tLast * int64(l+1) / int64(cfg.Levels)
	}
	c.Reset()
	return c, nil
}

// Name implements mitigation.Mitigator.
func (c *CBT) Name() string { return fmt.Sprintf("cbt-%d", c.cfg.Counters) }

// LastLevelThreshold returns the trigger threshold derived from TRH.
func (c *CBT) LastLevelThreshold() int64 { return c.tLast }

// SplitThreshold returns the split threshold of a tree level.
func (c *CBT) SplitThreshold(level int) int64 { return c.splits[level] }

// LiveCounters returns the number of counters currently in use.
func (c *CBT) LiveCounters() int { return len(c.nodes) }

// Triggers returns the number of last-level-threshold events.
func (c *CBT) Triggers() int64 { return c.refreshes }

// RowsRefreshed returns the total rows refreshed by triggers.
func (c *CBT) RowsRefreshed() int64 { return c.rowsRefr }

// find returns the index of the live counter covering row (binary search
// over the disjoint, sorted cover).
func (c *CBT) find(row int) int {
	lo, hi := 0, len(c.nodes)
	for lo < hi {
		mid := (lo + hi) / 2
		n := c.nodes[mid]
		switch {
		case row < n.lo:
			hi = mid
		case row >= n.hi:
			lo = mid + 1
		default:
			return mid
		}
	}
	panic(fmt.Sprintf("cbt: no counter covers row %d", row))
}

// AppendOnActivate implements mitigation.Mitigator.
func (c *CBT) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	return c.observe(dst, row, now, 1)
}

// observe feeds one ACT with a counter weight inc (1 = the classic scheme;
// >1 = the RowPress dwell increment) to the covering counter. A weighted
// observation may cross several split thresholds at once — the split loop
// already cascades — and triggers the same single region refresh whether
// the count crossed the last-level threshold by one or by many.
func (c *CBT) observe(dst []mitigation.VictimRefresh, row int, now dram.Time, inc int64) []mitigation.VictimRefresh {
	if row < 0 || row >= c.cfg.Rows {
		panic(fmt.Sprintf("cbt: row %d out of range [0,%d)", row, c.cfg.Rows))
	}
	for now >= c.windowEnd {
		c.resetTree()
		c.windowEnd += c.window
	}

	i := c.find(row)
	n := &c.nodes[i]
	n.count += inc

	// Split while allowed: below the last level, above this level's split
	// threshold, pool not exhausted, and range still divisible.
	for n.level < c.cfg.Levels-1 &&
		n.count >= c.splits[n.level] &&
		len(c.nodes) < c.cfg.Counters &&
		n.hi-n.lo >= 2 {
		mid := (n.lo + n.hi) / 2
		left := node{lo: n.lo, hi: mid, level: n.level + 1, count: n.count}
		right := node{lo: mid, hi: n.hi, level: n.level + 1, count: n.count}
		c.nodes = append(c.nodes, node{})
		copy(c.nodes[i+2:], c.nodes[i+1:])
		c.nodes[i] = left
		c.nodes[i+1] = right
		c.splitCount++
		if row >= mid {
			i++
		}
		n = &c.nodes[i]
	}

	if n.count < c.tLast {
		return dst
	}
	// Last-level threshold reached: refresh every victim of the covered
	// rows, then restart the counter.
	n.count = 0
	c.refreshes++
	pre := len(dst)
	dst = c.appendVictimRefreshes(dst, n.lo, n.hi)
	for _, vr := range dst[pre:] {
		c.rowsRefr += int64(vr.RowCount(c.cfg.Rows))
	}
	return dst
}

// appendVictimRefreshes appends the refresh set for a triggered counter
// covering [lo, hi).
//
// Under the contiguity assumption the victims are the covered rows plus
// Distance boundary rows on each side — one explicit region refresh of
// N/2^l + 2 rows (§II-C), whose Rows list reuses c.regionScratch. When the
// device remaps row addresses internally that assumption fails: the
// physical victims of the covered rows are scattered, so CBT must issue
// one aggressor-style refresh (NRR) per covered row and let the device
// resolve true physical neighbors — "N/2^l × 2 rows, not N/2^l + 2"
// (§II-C).
func (c *CBT) appendVictimRefreshes(dst []mitigation.VictimRefresh, lo, hi int) []mitigation.VictimRefresh {
	if !c.cfg.AssumeRemapped {
		c.regionScratch = c.regionScratch[:0]
		for r := lo - c.cfg.Distance; r < hi+c.cfg.Distance; r++ {
			if r >= 0 && r < c.cfg.Rows {
				c.regionScratch = append(c.regionScratch, r)
			}
		}
		return append(dst, mitigation.VictimRefresh{Rows: c.regionScratch})
	}
	for r := lo; r < hi; r++ {
		dst = append(dst, mitigation.VictimRefresh{Aggressor: r, Distance: c.cfg.Distance})
	}
	return dst
}

// AppendOnActivateBatch implements mitigation.Mitigator: each ACT feeds
// observe with its counter weight — 1, or under Config.Rowpress
// mitigation.RowpressIncrement of its dwell — stopping after the first
// appending ACT per the contract.
func (c *CBT) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	if !c.cfg.Rowpress {
		dwell = nil
	}
	for i := range rows {
		inc := int64(1)
		if dwell != nil {
			inc = mitigation.RowpressIncrement(dwell[i], c.cfg.NRAS, c.cfg.RowpressIncrementTicks)
		}
		pre := len(dst)
		dst = c.observe(dst, int(rows[i]), now[i], inc)
		if len(dst) > pre {
			return dst, i + 1
		}
	}
	return dst, len(rows)
}

// AppendTick implements mitigation.Mitigator; CBT takes no refresh-time
// action.
func (c *CBT) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	return dst
}

func (c *CBT) resetTree() {
	c.nodes = c.nodes[:0]
	c.nodes = append(c.nodes, node{lo: 0, hi: c.cfg.Rows, level: 0})
}

// Reset implements mitigation.Mitigator.
func (c *CBT) Reset() {
	c.resetTree()
	c.windowEnd = c.window
	c.refreshes = 0
	c.rowsRefr = 0
	c.splitCount = 0
}

// Cost implements mitigation.Mitigator: SRAM counters, each holding a count
// up to the last-level threshold plus the covered-range prefix (Table IV:
// CBT-128 ≈ 3.8 Kbit per bank).
func (c *CBT) Cost() mitigation.HardwareCost {
	per := mitigation.Bits(int(c.tLast)+1) + mitigation.Bits(c.cfg.Rows)
	return mitigation.HardwareCost{
		Entries:  c.cfg.Counters,
		SRAMBits: c.cfg.Counters * per,
	}
}

// Factory returns a mitigation.Factory building identical CBT engines.
func Factory(cfg Config) mitigation.Factory {
	return func() (mitigation.Mitigator, error) { return New(cfg) }
}
