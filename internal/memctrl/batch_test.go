package memctrl

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphene/internal/cbt"
	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/mitigation"
	"graphene/internal/para"
	"graphene/internal/trace"
	"graphene/internal/trr"
	"graphene/internal/twice"
)

// TestReplayBatchZeroAlloc is TestReplayHotPathZeroAlloc for the batched
// replay core: after warmup, a block replay through replayColBlock — row
// validation, then replayRun's horizon slicing, mitigator batch, oracle
// prefix, ActivateRun, refresh apply — performs no heap allocation at all
// (testing.AllocsPerRun must report exactly 0).
func TestReplayBatchZeroAlloc(t *testing.T) {
	timing := dram.DDR4()
	cases := []struct {
		name       string
		factory    mitigation.Factory
		hammerPair bool
		dwell      dram.Time
	}{
		{"unprotected", nil, false, 0},
		{"graphene-quiet", graphene.Factory(graphene.Config{TRH: 50000, K: 2, Rows: hotRows, Timing: timing}), false, 0},
		{"graphene-trigger-heavy", graphene.Factory(graphene.Config{TRH: 200, K: 1, Rows: hotRows, Timing: timing}), true, 0},
		{"stack-quiet", mitigation.StackFactory(
			trr.Factory(trr.Config{Rows: hotRows, Seed: 7}),
			graphene.Factory(graphene.Config{TRH: 50000, K: 2, Rows: hotRows, Timing: timing}),
		), false, 0},
		// Dwell-column legs: the dwell column, the per-ACT ActCycle
		// horizon walk, and the rowpress weighted-observe path must all
		// stay allocation-free too.
		{"unprotected-dwell", nil, false, timing.NRAS()},
		{"graphene-rowpress-dwell",
			graphene.Factory(graphene.Config{TRH: 50000, K: 2, Rows: hotRows, Timing: timing, Rowpress: true}),
			false, 3 * timing.NRAS()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := hotState(t, tc.factory)
			var out bankOut
			cfg := Config{Geometry: oneBank(hotRows)}
			const blockLen = 512
			// One recycled block, refilled in place the way the router
			// recycles a decoded block's columns.
			blk := trace.ColBlock{
				Rows: make([]int32, blockLen),
				Gaps: make([]dram.Time, blockLen),
			}
			if tc.dwell != 0 {
				blk.Dwells = make([]dram.Time, blockLen)
			}
			fill := func(base int) {
				for j := range blk.Rows {
					blk.Rows[j] = int32(hotRow(base+j, tc.hammerPair))
					blk.Gaps[j] = 50 * dram.Nanosecond
				}
				for j := range blk.Dwells {
					blk.Dwells[j] = tc.dwell
				}
			}
			// Warm every recycled buffer: the run time scratch, scheme
			// tables, vrScratch, flipStage, and (in the trigger-heavy case)
			// the NRR apply path.
			i := 0
			for ; i < 16; i++ {
				fill(i * blockLen)
				if err := replayColBlock(cfg, 1, s, 0, &out, blk); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				fill(i * blockLen)
				i++
				if err := replayColBlock(cfg, 1, s, 0, &out, blk); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("batched replayColBlock allocated %.2f times per block, want exactly 0", allocs)
			}
		})
	}
}

// contractBreaker violates the batch contract on purpose: its batch call
// reports whatever consumed count it is configured with.
type contractBreaker struct{ consumed int }

func (c *contractBreaker) Name() string { return "contract-breaker" }
func (c *contractBreaker) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	return dst
}
func (c *contractBreaker) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	return dst, c.consumed
}
func (c *contractBreaker) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	return dst
}
func (c *contractBreaker) Reset()                        {}
func (c *contractBreaker) Cost() mitigation.HardwareCost { return mitigation.HardwareCost{} }

// TestBatchContractViolationFails: a scheme whose batch consumes nothing
// (which would spin the replay forever) or consumes more ACTs than it was
// given must fail the run with a contract error, not hang or corrupt
// accounting.
func TestBatchContractViolationFails(t *testing.T) {
	for _, consumed := range []int{0, -3, 1 << 20} {
		accs := make([]trace.Access, 64)
		for i := range accs {
			accs[i] = trace.Access{Bank: 0, Row: i % 64}
		}
		_, err := Run(Config{
			Geometry: oneBank(64), Timing: smallTiming(),
			Factory: func() (mitigation.Mitigator, error) { return &contractBreaker{consumed: consumed}, nil },
		}, trace.FromSlice("bad", accs))
		if err == nil || !strings.Contains(err.Error(), "batch consumed") {
			t.Errorf("consumed=%d: err = %v, want a batch-contract error", consumed, err)
		}
	}
}

// splitTiming is a DDR4-shaped device with a 100 µs refresh window, so
// Graphene's table is a dozen entries and a short fuzz stream crosses
// several Graphene and CBT reset windows.
func splitTiming() dram.Timing {
	t := dram.DDR4()
	t.TREFW = 100 * dram.Microsecond
	return t
}

// splitSchemes builds every dwell-aware scheme — Graphene, TWiCe, PARA,
// CBT, and a Stack over all four — on a 256-row bank with thresholds low
// enough that a few hundred ACTs trigger, overflow TWiCe's table and split
// CBT's tree. Each call returns fresh, identically seeded instances.
func splitSchemes(t *testing.T, rowpress bool) []mitigation.Mitigator {
	t.Helper()
	const rows = 256
	timing := splitTiming()
	build := []func() (mitigation.Mitigator, error){
		func() (mitigation.Mitigator, error) {
			return graphene.New(graphene.Config{TRH: 600, K: 2, Rows: rows, Timing: timing, Rowpress: rowpress})
		},
		func() (mitigation.Mitigator, error) {
			return twice.New(twice.Config{TRH: 40, Rows: rows, Timing: timing, MaxEntries: 24, Rowpress: rowpress})
		},
		func() (mitigation.Mitigator, error) {
			return para.New(para.Config{Probabilities: []float64{0.2, 0.1}, Rows: rows, Seed: 3, Rowpress: rowpress})
		},
		func() (mitigation.Mitigator, error) {
			return cbt.New(cbt.Config{TRH: 200, Counters: 8, Rows: rows, Timing: timing, Rowpress: rowpress})
		},
	}
	var out, layers []mitigation.Mitigator
	for _, b := range build {
		m, err := b()
		if err != nil {
			t.Fatal(err)
		}
		l, err := b()
		if err != nil {
			t.Fatal(err)
		}
		out, layers = append(out, m), append(layers, l)
	}
	stack, err := mitigation.NewStack(layers...)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, stack)
}

// splitFeed replays rows/now/dwell into m and returns, per ACT, the
// refreshes appended on it (Rows copied out of the scheme's recycled
// scratch). size 0 feeds the rest of the run as one batch per call, 1
// feeds one-ACT batches, and -1 calls AppendOnActivate. Every batch call
// must honor the contract: consume 1..len ACTs and stop exactly after the
// first appending one.
func splitFeed(t *testing.T, m mitigation.Mitigator, rows []int32, now, dwell []dram.Time, size int) [][]mitigation.VictimRefresh {
	t.Helper()
	perACT := make([][]mitigation.VictimRefresh, len(rows))
	var dst []mitigation.VictimRefresh
	for i := 0; i < len(rows); {
		j := len(rows)
		if size != 0 {
			j = i + 1
		}
		var dw []dram.Time
		if dwell != nil {
			dw = dwell[i:j]
		}
		consumed := 1
		if size < 0 {
			dst = m.AppendOnActivate(dst[:0], int(rows[i]), now[i])
		} else {
			dst, consumed = m.AppendOnActivateBatch(dst[:0], rows[i:j], now[i:j], dw)
		}
		if consumed < 1 || consumed > j-i || (len(dst) == 0 && consumed != j-i) {
			t.Fatalf("%s: call at ACT %d consumed %d of %d with %d appends, outside the batch contract",
				m.Name(), i, consumed, j-i, len(dst))
		}
		i += consumed
		for _, vr := range dst {
			vr.Rows = slices.Clone(vr.Rows)
			perACT[i-1] = append(perACT[i-1], vr)
		}
	}
	return perACT
}

// sameState is reflect.DeepEqual over a scheme's whole state, except that
// func values compare by code pointer, so two engines whose configs hold
// the same function (Graphene's Mu model) compare equal. seen breaks
// pointer cycles (Graphene's bucket lists), as DeepEqual's visited set
// does.
func sameState(a, b reflect.Value, seen map[[2]uintptr]bool) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Func:
		return a.Pointer() == b.Pointer()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Kind() == reflect.Pointer {
			pair := [2]uintptr{a.Pointer(), b.Pointer()}
			if seen[pair] {
				return true
			}
			seen[pair] = true
		}
		return sameState(a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameState(a.Field(i), b.Field(i), seen) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameState(a.Index(i), b.Index(i), seen) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !sameState(a.MapIndex(k), bv, seen) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float()
	case reflect.String:
		return a.String() == b.String()
	}
	panic(fmt.Sprintf("sameState: unsupported kind %v", a.Kind()))
}

// equalSchemes reports whether two scheme instances hold the same state.
func equalSchemes(a, b mitigation.Mitigator) bool {
	return sameState(reflect.ValueOf(a), reflect.ValueOf(b), map[[2]uintptr]bool{})
}

// firstDiff returns the first ACT whose appends differ, or -1.
func firstDiff(a, b [][]mitigation.VictimRefresh) int {
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// FuzzBatchSplit pins that how a run is split into calls never changes a
// dwell-aware scheme's results: feeding it as one batch (per call, the
// rest of the run), as one-ACT batches, and — where every increment is 1 —
// as AppendOnActivate calls gives identical appends on identical ACTs,
// identical consumed counts, and identical final state (counters, tables,
// PARA's RNG, compared field by field with equalSchemes). Each input runs
// with no dwell column, an all-zero column and a mixed column (0 to 3
// nRAS), each with Rowpress off and on.
func FuzzBatchSplit(f *testing.F) {
	// Each ACT is a (row, gap, dwell) byte triple.
	seed := func(n int, act func(i int) (row, gap, dwell byte)) []byte {
		var data []byte
		for i := range n {
			r, g, d := act(i)
			data = append(data, r, g, d)
		}
		return data
	}
	// A hammered pair with long dwells: unit and weighted increments cross
	// every scheme's threshold, and PARA's multi-round ACTs fire.
	f.Add(seed(300, func(i int) (byte, byte, byte) { return byte(9 + i%2), byte(i % 3 / 2), byte(i % 7) }))
	// Distinct rows, faster than the window was sized for: Graphene's
	// spillover alert, TWiCe's overflow.
	f.Add(seed(1200, func(i int) (byte, byte, byte) { return byte(i * 37), 0, byte(i % 5) }))
	// Quarter-window gaps: every fourth ACT lands exactly on a reset-window
	// boundary, and the run ends mid-window.
	f.Add(seed(90, func(i int) (byte, byte, byte) { return byte(3 + i%3), 32, byte(i) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*2048 {
			return
		}
		nras := splitTiming().NRAS()
		step := splitTiming().TREFW / 256
		var rows []int32
		var now, mixed []dram.Time
		at := dram.Time(0)
		for i := 0; i+2 < len(data); i += 3 {
			rows = append(rows, int32(data[i]))
			at += dram.Time(data[i+1]%64) * step
			now = append(now, at)
			mixed = append(mixed, dram.Time(data[i+2]%7)*nras/2)
		}
		if len(rows) == 0 {
			return
		}
		for _, col := range []struct {
			name  string
			dwell []dram.Time
		}{{"nil", nil}, {"zero", make([]dram.Time, len(rows))}, {"mixed", mixed}} {
			for _, rowpress := range []bool{false, true} {
				name := fmt.Sprintf("dwell=%s/rowpress=%v", col.name, rowpress)
				whole, unit, scalar := splitSchemes(t, rowpress), splitSchemes(t, rowpress), splitSchemes(t, rowpress)
				for k, m := range whole {
					got := splitFeed(t, m, rows, now, col.dwell, 0)
					want := splitFeed(t, unit[k], rows, now, col.dwell, 1)
					if a := firstDiff(got, want); a >= 0 {
						t.Fatalf("%s %s: ACT %d: one batch appended %v, one-ACT batches %v", name, m.Name(), a, got[a], want[a])
					}
					if !equalSchemes(m, unit[k]) {
						t.Fatalf("%s %s: state after one batch differs from one-ACT batches", name, m.Name())
					}
					if rowpress && col.name == "mixed" {
						continue // AppendOnActivate carries no dwell
					}
					sc := splitFeed(t, scalar[k], rows, now, col.dwell, -1)
					if a := firstDiff(got, sc); a >= 0 {
						t.Fatalf("%s %s: ACT %d: one batch appended %v, AppendOnActivate %v", name, m.Name(), a, got[a], sc[a])
					}
					if !equalSchemes(m, scalar[k]) {
						t.Fatalf("%s %s: state after one batch differs from AppendOnActivate", name, m.Name())
					}
				}
			}
		}
	})
}
