package hammer

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

func mustOracle(t *testing.T, rows int, trh int64, dist int, mu mitigation.MuModel) *Oracle {
	t.Helper()
	o, err := NewOracle(rows, trh, dist, mu)
	if err != nil {
		t.Fatalf("NewOracle: %v", err)
	}
	return o
}

func TestNewOracleRejectsBadArgs(t *testing.T) {
	if _, err := NewOracle(0, 100, 1, nil); err == nil {
		t.Error("accepted 0 rows")
	}
	if _, err := NewOracle(16, 0, 1, nil); err == nil {
		t.Error("accepted TRH 0")
	}
	if _, err := NewOracle(16, 100, 0, nil); err == nil {
		t.Error("accepted distance 0")
	}
	if _, err := NewOracle(16, 100, 2, func(i int) float64 { return 2 }); err == nil {
		t.Error("accepted invalid μ")
	}
}

func TestSingleSidedFlipAtExactThreshold(t *testing.T) {
	o := mustOracle(t, 64, 100, 1, nil)
	var flips []Flip
	for i := 0; i < 100; i++ {
		flips = append(flips, o.AppendActivate(nil, 10, 0)...)
	}
	if len(flips) != 2 {
		t.Fatalf("got %d flips, want 2 (rows 9 and 11)", len(flips))
	}
	victims := map[int]bool{flips[0].Victim: true, flips[1].Victim: true}
	if !victims[9] || !victims[11] {
		t.Errorf("flipped %v, want rows 9 and 11", victims)
	}
	// The flip fires exactly at the TRH-th ACT, not before.
	o.Reset()
	for i := 0; i < 99; i++ {
		if f := o.AppendActivate(nil, 10, 0); len(f) != 0 {
			t.Fatalf("flip fired at ACT %d, want none before 100", i+1)
		}
	}
	if f := o.AppendActivate(nil, 10, 0); len(f) != 2 {
		t.Fatalf("flip did not fire at the 100th ACT: %v", f)
	}
}

func TestDoubleSidedHalvesPerAggressorBudget(t *testing.T) {
	// §III-B: two aggressors hammering one victim from both sides need
	// only TRH/2 ACTs each.
	o := mustOracle(t, 64, 100, 1, nil)
	for i := 0; i < 50; i++ {
		if f := o.AppendActivate(nil, 9, 0); len(f) != 0 && i < 49 {
			t.Fatalf("premature flip at pair %d", i)
		}
		o.AppendActivate(nil, 11, 0)
	}
	if o.Disturbance(10) != 100 {
		t.Errorf("victim disturbance = %g, want 100", o.Disturbance(10))
	}
	if o.FlipCount() == 0 {
		t.Error("double-sided hammering with TRH/2 per side did not flip")
	}
}

func TestRefreshClearsDisturbance(t *testing.T) {
	o := mustOracle(t, 64, 100, 1, nil)
	for i := 0; i < 99; i++ {
		o.AppendActivate(nil, 10, 0)
	}
	o.RefreshRow(9)
	o.RefreshRow(11)
	for i := 0; i < 99; i++ {
		if f := o.AppendActivate(nil, 10, 0); len(f) != 0 {
			t.Fatalf("flip after refresh at ACT %d", i)
		}
	}
	if o.FlipCount() != 0 {
		t.Errorf("flips = %d, want 0", o.FlipCount())
	}
}

func TestFlipLatchReportsOncePerRefresh(t *testing.T) {
	o := mustOracle(t, 64, 10, 1, nil)
	var total int
	for i := 0; i < 30; i++ {
		total += len(o.AppendActivate(nil, 10, 0))
	}
	if total != 2 { // one per victim, latched afterwards
		t.Errorf("reported %d flips, want 2 (latched)", total)
	}
	o.RefreshRow(9)
	for i := 0; i < 10; i++ {
		total += len(o.AppendActivate(nil, 10, 0))
	}
	if total != 3 {
		t.Errorf("after refresh, total = %d, want 3", total)
	}
}

func TestNonAdjacentDisturbance(t *testing.T) {
	o := mustOracle(t, 64, 100, 3, mitigation.InverseSquareMu)
	o.AppendActivate(nil, 10, 0)
	cases := []struct {
		row  int
		want float64
	}{
		{9, 1}, {11, 1},
		{8, 0.25}, {12, 0.25},
		{7, 1.0 / 9}, {13, 1.0 / 9},
		{6, 0}, {14, 0},
	}
	for _, tc := range cases {
		if got := o.Disturbance(tc.row); got != tc.want {
			t.Errorf("disturbance(%d) = %g, want %g", tc.row, got, tc.want)
		}
	}
}

func TestEdgeRowsHaveOneNeighbor(t *testing.T) {
	o := mustOracle(t, 8, 10, 1, nil)
	for i := 0; i < 10; i++ {
		o.AppendActivate(nil, 0, 0)
	}
	if o.FlipCount() != 1 {
		t.Errorf("edge aggressor flipped %d victims, want 1 (row 1)", o.FlipCount())
	}
	if o.Flips()[0].Victim != 1 {
		t.Errorf("victim = %d, want 1", o.Flips()[0].Victim)
	}
}

func TestMaxDisturbance(t *testing.T) {
	o := mustOracle(t, 64, 1000, 1, nil)
	for i := 0; i < 7; i++ {
		o.AppendActivate(nil, 20, 0)
	}
	o.AppendActivate(nil, 30, 0)
	row, d := o.MaxDisturbance()
	if d != 7 || (row != 19 && row != 21) {
		t.Errorf("MaxDisturbance = row %d, %g; want row 19 or 21 with 7", row, d)
	}
}

func TestResetClearsEverything(t *testing.T) {
	o := mustOracle(t, 16, 5, 1, nil)
	for i := 0; i < 10; i++ {
		o.AppendActivate(nil, 8, 0)
	}
	o.Reset()
	if o.FlipCount() != 0 || o.ACTs() != 0 {
		t.Errorf("Reset left flips %d acts %d", o.FlipCount(), o.ACTs())
	}
	if _, d := o.MaxDisturbance(); d != 0 {
		t.Errorf("Reset left disturbance %g", d)
	}
}

func TestQuickDisturbanceConservation(t *testing.T) {
	// Property: with uniform μ and ±1, total disturbance equals
	// 2·ACTs − (ACTs on edge rows) when nothing is refreshed.
	f := func(seed int64, n uint8) bool {
		rows := 32
		o, err := NewOracle(rows, 1<<40, 1, nil)
		if err != nil {
			return false
		}
		acts := int(n)
		edge := 0
		r := seed
		for i := 0; i < acts; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			row := int(uint64(r) % uint64(rows))
			if row == 0 || row == rows-1 {
				edge++
			}
			o.AppendActivate(nil, row, 0)
		}
		var total float64
		for i := 0; i < rows; i++ {
			total += o.Disturbance(i)
		}
		return total == float64(2*acts-edge)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopVictims(t *testing.T) {
	o := mustOracle(t, 64, 1<<40, 1, nil)
	for i := 0; i < 9; i++ {
		o.AppendActivate(nil, 20, 0) // victims 19, 21 at 9 each
	}
	for i := 0; i < 4; i++ {
		o.AppendActivate(nil, 40, 0) // victims 39, 41 at 4 each
	}
	top := o.TopVictims(3)
	if len(top) != 3 {
		t.Fatalf("got %d victims, want 3", len(top))
	}
	if top[0].Disturbance != 9 || top[1].Disturbance != 9 {
		t.Errorf("top two = %+v, want the 9s", top[:2])
	}
	if top[2].Disturbance != 4 {
		t.Errorf("third = %+v, want a 4", top[2])
	}
	if got := o.TopVictims(0); got != nil {
		t.Errorf("TopVictims(0) = %v", got)
	}
	if got := o.TopVictims(100); len(got) != 4 {
		t.Errorf("TopVictims(100) returned %d rows, want the 4 disturbed", len(got))
	}
}

func TestAppendActivateOpenWeighting(t *testing.T) {
	// With nRAS set, a dwell of k·nRAS adds weight k; dwell 0 and
	// dwell == nRAS both add exactly 1.
	o := mustOracle(t, 16, 10, 1, nil)
	o.SetNRAS(100)
	o.AppendActivateOpen(nil, 8, 0, 0)
	if d := o.Disturbance(7); d != 1 {
		t.Errorf("dwell 0 weight = %v, want 1", d)
	}
	o.AppendActivateOpen(nil, 8, 1, 100)
	if d := o.Disturbance(7); d != 2 {
		t.Errorf("dwell nRAS added %v, want 1", d-1)
	}
	o.AppendActivateOpen(nil, 8, 2, 350)
	if d := o.Disturbance(7); d != 5.5 {
		t.Errorf("dwell 3.5·nRAS brought disturbance to %v, want 5.5", d)
	}
	// Without SetNRAS, dwell is ignored entirely.
	o2 := mustOracle(t, 16, 10, 1, nil)
	o2.AppendActivateOpen(nil, 8, 0, 1<<40)
	if d := o2.Disturbance(7); d != 1 {
		t.Errorf("unconfigured nRAS weighted dwell: %v, want 1", d)
	}
}

func TestRefreshAtFlipTickNoDoubleReport(t *testing.T) {
	// Regression: under the fractional-increment model a victim can flip
	// and be refreshed within the same tick's episode. The latch must
	// survive a refresh at exactly the flip tick so residual same-tick
	// ACTs cannot re-report the flip; a strictly later refresh clears it.
	o := mustOracle(t, 16, 2, 1, nil)
	o.SetNRAS(100)
	const tick = 1000
	flips := o.AppendActivateOpen(nil, 8, tick, 250) // weight 2.5 ≥ TRH on both neighbors
	if len(flips) != 2 {
		t.Fatalf("flips = %v, want victims 7 and 9", flips)
	}
	o.RefreshRowAt(7, tick) // refresh at the exact flip tick
	if o.Disturbance(7) != 0 {
		t.Errorf("refresh did not clear disturbance: %v", o.Disturbance(7))
	}
	// Residual same-tick activity must not re-report row 7 (and row 9 is
	// still latched from the first episode): no new flips at all.
	flips = o.AppendActivateOpen(nil, 8, tick, 250)
	if len(flips) != 0 || o.FlipCount() != 2 {
		t.Errorf("refresh at flip tick double-reported: new %v, FlipCount %d (want 0, 2)", flips, o.FlipCount())
	}
	// A refresh strictly after the flip tick releases the latch.
	o.RefreshRowAt(7, tick+1)
	flips = o.AppendActivateOpen(nil, 8, tick+2, 250)
	found := false
	for _, f := range flips {
		found = found || f.Victim == 7
	}
	if !found {
		t.Error("later refresh failed to release the latch: no new flip for row 7")
	}
}

// refOracle is the per-ACT oracle as it stood before the run entry: three
// per-row arrays (disturbance, flip latch, flip tick) and one activation
// at a time. FuzzOracleRunMatchesReference holds the run-level Oracle to
// it exactly.
type refOracle struct {
	rows     int
	trh      float64
	distance int
	mu       []float64
	nras     dram.Time

	disturb []float64
	flipped []bool
	flipAt  []dram.Time
	flips   []Flip
	acts    int64
}

func newRefOracle(rows int, trh int64, distance int, mu mitigation.MuModel, nras dram.Time) *refOracle {
	if mu == nil {
		mu = mitigation.UniformMu
	}
	mus := make([]float64, distance)
	for d := 1; d <= distance; d++ {
		mus[d-1] = mu(d)
	}
	return &refOracle{
		rows: rows, trh: float64(trh), distance: distance, mu: mus, nras: nras,
		disturb: make([]float64, rows),
		flipped: make([]bool, rows),
		flipAt:  make([]dram.Time, rows),
	}
}

func (o *refOracle) activate(dst []Flip, row int, now, dwell dram.Time) []Flip {
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

func (o *refOracle) refreshRow(row int) {
	o.disturb[row] = 0
	o.flipped[row] = false
}

func (o *refOracle) refreshRowAt(row int, now dram.Time) {
	o.disturb[row] = 0
	if o.flipped[row] && now <= o.flipAt[row] {
		return
	}
	o.flipped[row] = false
}

// topVictims is TopVictims by a full sort: highest first, ties by row.
func (o *refOracle) topVictims(n int) []VictimReport {
	var all []VictimReport
	for row, d := range o.disturb {
		if d != 0 {
			all = append(all, VictimReport{Row: row, Disturbance: d})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Disturbance > all[j].Disturbance })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

func (o *refOracle) maxDisturbance() (row int, d float64) {
	for i, v := range o.disturb {
		if v > d {
			row, d = i, v
		}
	}
	return row, d
}

// requireMatchesRef compares every observable of o against ref.
func requireMatchesRef(t *testing.T, step int, o *Oracle, ref *refOracle) {
	t.Helper()
	for row := 0; row < ref.rows; row++ {
		if got, want := o.Disturbance(row), ref.disturb[row]; got != want {
			t.Fatalf("step %d: Disturbance(%d) = %v, reference %v", step, row, got, want)
		}
	}
	if !reflect.DeepEqual(o.Flips(), ref.flips) {
		t.Fatalf("step %d: Flips = %v, reference %v", step, o.Flips(), ref.flips)
	}
	if o.FlipCount() != len(ref.flips) || o.ACTs() != ref.acts {
		t.Fatalf("step %d: FlipCount %d ACTs %d, reference %d %d", step, o.FlipCount(), o.ACTs(), len(ref.flips), ref.acts)
	}
	gr, gd := o.MaxDisturbance()
	wr, wd := ref.maxDisturbance()
	if gr != wr || gd != wd {
		t.Fatalf("step %d: MaxDisturbance = %d %v, reference %d %v", step, gr, gd, wr, wd)
	}
	if got, want := o.TopVictims(3), ref.topVictims(3); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("step %d: TopVictims(3) = %v, reference %v", step, got, want)
	}
}

// FuzzOracleRunMatchesReference drives the run-level oracle and the
// per-ACT reference with the same operations — ACT runs fed to
// AppendActivateRun in random splits, interleaved with refreshes at and
// after flip ticks — and requires exact equality of every row's
// disturbance, the flip list and the summary views after each step.
func FuzzOracleRunMatchesReference(f *testing.F) {
	f.Add([]byte{0, 5, 9, 1, 2, 3, 4, 5, 6, 7, 8, 2, 3, 0, 1}, uint8(8), uint8(1), false, uint8(0), uint8(3))
	f.Add([]byte{1, 15, 0, 255, 128, 129, 7, 3, 0, 2, 7, 1, 2, 9, 6, 6}, uint8(0), uint8(2), true, uint8(1), uint8(4))
	f.Add([]byte{0, 12, 200, 3, 3, 3, 3, 3, 3, 2, 3, 1, 0, 12, 2, 4, 4}, uint8(40), uint8(3), true, uint8(2), uint8(2))
	f.Add([]byte{0, 31, 17, 128, 255, 64, 9, 2, 1, 3, 0, 31, 3, 9, 0}, uint8(3), uint8(1), false, uint8(3), uint8(7))
	// Row 5 hammered to TRH at tick 0, victim 4 refreshed at its flip
	// tick, then hammered again at the same tick: the latch must hold.
	f.Add([]byte{0, 3, 5, 0, 5, 0, 5, 0, 5, 0, 3, 2, 4, 0, 0, 3, 5, 0, 5, 0, 5, 0, 5, 0, 3}, uint8(8), uint8(0), false, uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, ops []byte, rowSel, distSel uint8, nonUniform bool, dwellMode, trhSel uint8) {
		rows := 4 + int(rowSel)%61
		dist := 1 + int(distSel)%3
		var mu mitigation.MuModel = mitigation.UniformMu
		if nonUniform {
			mu = mitigation.InverseSquareMu
		}
		trh := 1 + int64(trhSel)%24
		// dwellMode: 0 no column, 1 column without nRAS, 2 and 3 a
		// column weighed against nRAS (2 leaves some dwells at 0).
		var nras dram.Time
		if dwellMode%4 >= 2 {
			nras = 100
		}
		o, err := NewOracle(rows, trh, dist, mu)
		if err != nil {
			t.Fatal(err)
		}
		o.SetNRAS(nras)
		ref := newRefOracle(rows, trh, dist, mu, nras)

		pos := 0
		next := func() int {
			if pos >= len(ops) {
				return 0
			}
			b := ops[pos]
			pos++
			return int(b)
		}
		pickRow := func() int {
			b := next()
			switch {
			case b >= 0xf0:
				return rows - 1
			case b >= 0xe0:
				return 0
			}
			return b % rows
		}
		var now dram.Time
		for step := 0; pos < len(ops); step++ {
			switch next() % 4 {
			case 0, 1: // an ACT run, split at random into AppendActivateRun calls
				n := 1 + next()%24
				runRows := make([]int32, n)
				times := make([]dram.Time, n)
				var dwells []dram.Time
				if dwellMode%4 != 0 {
					dwells = make([]dram.Time, n)
				}
				for k := range runRows {
					runRows[k] = int32(pickRow())
					now += dram.Time(next() % 3) // repeated ticks included
					times[k] = now
					if dwells != nil {
						dwells[k] = dram.Time(next()%4) * 75
						if dwellMode%4 == 3 && dwells[k] == 0 {
							dwells[k] = 100
						}
					}
				}
				var want, got []Flip
				for k := range runRows {
					var dw dram.Time
					if dwells != nil {
						dw = dwells[k]
					}
					want = ref.activate(want, int(runRows[k]), times[k], dw)
				}
				for lo := 0; lo < n; {
					hi := min(n, lo+1+next()%n)
					var dcol []dram.Time
					if dwells != nil {
						dcol = dwells[lo:hi]
					}
					got = o.AppendActivateRun(got, runRows[lo:hi], times[lo:hi], dcol)
					lo = hi
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: run appended %v, reference %v", step, got, want)
				}
			case 2: // a refresh at the row's flip tick, or after it
				row := pickRow()
				var at dram.Time
				if next()%2 == 0 && ref.flipped[row] {
					at = ref.flipAt[row]
				} else {
					now++
					at = now
				}
				o.RefreshRowAt(row, at)
				ref.refreshRowAt(row, at)
			case 3:
				row := pickRow()
				o.RefreshRow(row)
				ref.refreshRow(row)
			}
			requireMatchesRef(t, step, o, ref)
		}
	})
}

// TestReleaseRecyclesClean is the recycling contract: an oracle built
// after another of the same row count was released — holding latched
// rows and high disturbance — starts from nothing and flips again at
// TRH; a different row count gets an array of its own size. Whether the
// array was actually reused is not asserted (sync.Pool may drop entries
// at any time, and does so at random under -race).
func TestReleaseRecyclesClean(t *testing.T) {
	const rows, trh = 64, 10
	for round := 0; round < 20; round++ {
		o := mustOracle(t, rows, trh, 2, nil)
		for i := 0; i < 3*trh; i++ {
			o.AppendActivate(nil, 0, dram.Time(i))
			o.AppendActivate(nil, rows-1, dram.Time(i))
			o.AppendActivate(nil, 20+round, dram.Time(i))
		}
		if o.FlipCount() == 0 {
			t.Fatal("setup: hammering did not latch any row")
		}
		o.Release()

		n := mustOracle(t, rows, trh, 2, nil)
		if n.FlipCount() != 0 || n.ACTs() != 0 || len(n.Flips()) != 0 {
			t.Fatalf("round %d: recycled oracle reports flips %d acts %d", round, n.FlipCount(), n.ACTs())
		}
		for row := 0; row < rows; row++ {
			if d := n.Disturbance(row); d != 0 {
				t.Fatalf("round %d: recycled oracle row %d disturbance %v", round, row, d)
			}
		}
		if _, d := n.MaxDisturbance(); d != 0 || len(n.TopVictims(3)) != 0 {
			t.Fatalf("round %d: recycled oracle has residual disturbance %v", round, d)
		}
		// The rows the released oracle latched flip again at TRH.
		var flips []Flip
		for i := 0; i < trh; i++ {
			flips = n.AppendActivate(flips, 0, dram.Time(i))
		}
		if len(flips) != 2 || flips[0].Victim != 1 || flips[1].Victim != 2 || flips[0].At != trh-1 || flips[1].At != trh-1 {
			t.Fatalf("round %d: recycled oracle flips %v, want rows 1 and 2 at tick %d", round, flips, trh-1)
		}
		n.Release()

		for _, other := range []int{rows / 2, rows * 2} {
			m := mustOracle(t, other, trh, 1, nil)
			if m.Rows() != other {
				t.Fatalf("Rows = %d, want %d", m.Rows(), other)
			}
			m.AppendActivate(nil, other-1, 0)
			if d := m.Disturbance(other - 2); d != 1 {
				t.Fatalf("%d-row oracle: disturbance %v after one ACT, want 1", other, d)
			}
			m.Release()
		}
	}
}

func TestAppendActivateRunPanicsOutOfRange(t *testing.T) {
	o := mustOracle(t, 16, 10, 1, nil)
	for _, row := range []int32{-1, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("row %d: no panic", row)
				}
			}()
			o.AppendActivateRun(nil, []int32{row}, []dram.Time{0}, nil)
		}()
	}
	if _, d := o.MaxDisturbance(); d != 0 {
		t.Errorf("out-of-range rows disturbed the bank: max %v", d)
	}
}
