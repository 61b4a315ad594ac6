package memctrl

import (
	"testing"

	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/hammer"
	"graphene/internal/mitigation"
	"graphene/internal/para"
	"graphene/internal/trace"
	"graphene/internal/twice"
)

// The hot-path benchmarks time the steady-state replay loop one ACT at a
// time: b.N is the ACT count, so ns/op is ns per ACT and allocs/op is the
// per-ACT allocation count the append-style Mitigator API is meant to hold
// at zero (EXPERIMENTS.md hot-path table; `make bench-replay` records them
// in BENCH_replay.json).
//
// Each case drives one bank's bankState directly — the same replayOne the
// streaming and buffered paths execute — with the ground-truth oracle armed
// (TRH high enough that no flip is ever recorded, so the flip staging
// buffer never grows mid-measurement).

const hotRows = 64 * 1024

// hotState mirrors run()'s per-bank setup for a single benchmarked bank.
func hotState(tb testing.TB, factory mitigation.Factory) *bankState {
	tb.Helper()
	timing := dram.DDR4()
	bank, err := dram.NewBank(timing, hotRows)
	if err != nil {
		tb.Fatal(err)
	}
	s := &bankState{bank: bank, nextREF: timing.TREFI}
	if factory != nil {
		m, err := factory()
		if err != nil {
			tb.Fatal(err)
		}
		s.mit = m
	}
	if s.oracle, err = hammer.NewOracle(hotRows, 1<<40, 1, nil); err != nil {
		tb.Fatal(err)
	}
	return s
}

// hotFactories returns the scheme factories the hot-path table tracks.
// "quiet" is Graphene observing a wide scatter that never reaches T;
// "graphene-trigger-heavy" hammers two rows so nearly every window issues
// refreshes.
func hotFactories() map[string]mitigation.Factory {
	timing := dram.DDR4()
	return map[string]mitigation.Factory{
		"graphene": graphene.Factory(graphene.Config{TRH: 50000, K: 2, Rows: hotRows, Timing: timing}),
		"para":     para.Factory(para.Classic(0.001, hotRows, 1)),
		"twice":    twice.Factory(twice.Config{TRH: 50000, Rows: hotRows, Timing: timing}),
	}
}

// hotRow returns the i-th activated row: a wide scatter for quiet streams,
// a two-row hammer for trigger-heavy ones.
func hotRow(i int, hammerPair bool) int {
	if hammerPair {
		return 1000 + (i & 1)
	}
	return (i * 7919) & (hotRows - 1)
}

func benchmarkHotPath(b *testing.B, factory mitigation.Factory, hammerPair bool) {
	s := hotState(b, factory)
	var out bankOut
	acc := trace.Access{Gap: 50 * dram.Nanosecond}
	// Warm up scratch capacities (scheme tables, stream buffers) before
	// counting allocations.
	for i := 0; i < 4096; i++ {
		acc.Row = hotRow(i, hammerPair)
		if err := s.replayOne(acc, 0, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Row = hotRow(i, hammerPair)
		if err := s.replayOne(acc, 0, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathACT(b *testing.B) {
	factories := hotFactories()
	b.Run("quiet", func(b *testing.B) { benchmarkHotPath(b, factories["graphene"], false) })
	b.Run("graphene-trigger-heavy", func(b *testing.B) { benchmarkHotPath(b, factories["graphene"], true) })
	b.Run("para", func(b *testing.B) { benchmarkHotPath(b, factories["para"], false) })
	b.Run("twice", func(b *testing.B) { benchmarkHotPath(b, factories["twice"], true) })
}

// BenchmarkHotPathTriggerCycle makes the per-trigger allocation cost
// visible above benchmem's integer rounding: one op is a full hammer cycle
// — 2T ACTs alternating two aggressors against a low-threshold Graphene
// bank (TRH 200, K=1, T=50), so every op carries two NRR triggers and,
// roughly every other op, one auto-refresh. Per-ACT benches amortize those
// paths to 0 allocs/op; here they surface per cycle.
func BenchmarkHotPathTriggerCycle(b *testing.B) {
	timing := dram.DDR4()
	factory := graphene.Factory(graphene.Config{TRH: 200, K: 1, Rows: hotRows, Timing: timing})
	s := hotState(b, factory)
	var out bankOut
	acc := trace.Access{Gap: 50 * dram.Nanosecond}
	const cycle = 100 // 2T ACTs
	for i := 0; i < 8*cycle; i++ {
		acc.Row = hotRow(i, true)
		if err := s.replayOne(acc, 0, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < cycle; j++ {
			acc.Row = hotRow(j, true)
			if err := s.replayOne(acc, 0, &out); err != nil {
				b.Fatal(err)
			}
		}
	}
}
