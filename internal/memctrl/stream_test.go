package memctrl

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/mitigation"
	"graphene/internal/para"
	"graphene/internal/remap"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// diffCase is one differential fixture: mkCfg/mkGen rebuild the config and
// generator fresh per run, since generators are single-use and some
// factories (PARA) are stateful across Factory() calls.
type diffCase struct {
	name  string
	mkCfg func() Config
	mkGen func() trace.Generator
}

// grapheneFactory builds a fresh Graphene factory for the given scale.
func grapheneFactory(trh int64, rows int, timing dram.Timing) mitigation.Factory {
	return graphene.Factory(graphene.Config{TRH: trh, K: 2, Rows: rows, Timing: timing})
}

// diffCases covers the shapes the streaming rework could plausibly break:
// the adversarial suite on one bank, multi-bank mixed workloads, remapped
// geometry, a stateful-seed scheme, and chunk-boundary trace lengths.
func diffCases(t *testing.T) []diffCase {
	t.Helper()
	timing := smallTiming()
	const rows = 1 << 12
	const trh = 2000
	attackTotal := int64(80_000)

	var cases []diffCase

	// The §V-B attack suite, single bank, Graphene + oracle — the sweep's
	// hot path.
	attacks := []struct {
		name string
		mk   func() trace.Generator
	}{
		{"S1-10", func() trace.Generator { return workload.S1(0, rows, 10, attackTotal) }},
		{"S1-20", func() trace.Generator { return workload.S1(0, rows, 20, attackTotal) }},
		{"S2", func() trace.Generator { return workload.S2(0, rows, 10, 0.2, attackTotal, 1) }},
		{"S3", func() trace.Generator { return workload.S3(0, rows/2, attackTotal) }},
		{"S4", func() trace.Generator { return workload.S4(0, rows, rows/2, 0.5, attackTotal, 1) }},
	}
	for _, a := range attacks {
		a := a
		cases = append(cases, diffCase{
			name: "attack/" + a.name,
			mkCfg: func() Config {
				return Config{
					Geometry: oneBank(rows), Timing: timing,
					Factory: grapheneFactory(trh, rows, timing), TRH: trh,
				}
			},
			mkGen: a.mk,
		})
	}

	// Multi-bank mixed profile workload: two profiles interleaved over
	// 8 banks, protected + oracle.
	multi := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 8, RowsPerBank: 1 << 14}
	cases = append(cases, diffCase{
		name: "multibank/mix",
		mkCfg: func() Config {
			return Config{
				Geometry: multi, Timing: timing,
				Factory: grapheneFactory(trh, multi.RowsPerBank, timing), TRH: trh,
			}
		},
		mkGen: func() trace.Generator {
			a, err := workload.Profiles()[0].Generate(multi, timing, 40_000, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := workload.Profiles()[10].Generate(multi, timing, 40_000, 2)
			if err != nil {
				t.Fatal(err)
			}
			mix, err := workload.Mix("mix", 3, a, b)
			if err != nil {
				t.Fatal(err)
			}
			return mix
		},
	})

	// Remapped geometry: the remapper sits between the controller's logical
	// addresses and the physical disturbance/refresh machinery.
	rm, err := remap.Permutation(rows, 11)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, diffCase{
		name: "remap/S1-10",
		mkCfg: func() Config {
			return Config{
				Geometry: oneBank(rows), Timing: timing,
				Factory: grapheneFactory(trh, rows, timing), TRH: trh,
				Remap: rm,
			}
		},
		mkGen: func() trace.Generator { return workload.S1(0, rows, 10, attackTotal) },
	})

	// Stateful factory (PARA derives each bank's RNG seed from a closure
	// counter): run() must call Factory() the same number of times in the
	// same order on both paths.
	cases = append(cases, diffCase{
		name: "para/multibank",
		mkCfg: func() Config {
			return Config{
				Geometry: multi, Timing: timing,
				Factory: para.Factory(para.Classic(0.01, multi.RowsPerBank, 7)), TRH: trh,
			}
		},
		mkGen: func() trace.Generator {
			var i int64
			return trace.FromFunc("rr", func() (trace.Access, bool) {
				if i >= 60_000 {
					return trace.Access{}, false
				}
				i++
				return trace.Access{Bank: int(i % 8), Row: int((i * 17) % rows)}, true
			})
		},
	})

	// Open-row dwell that first appears mid-block: the generator
	// partitioner must backfill the block's earlier ACTs with 0, and the
	// codec's dwell-free first segment must stay column-free.
	cases = append(cases, diffCase{
		name: "dwell/mid-block",
		mkCfg: func() Config {
			return Config{
				Geometry: multi, Timing: timing, TRH: trh,
				Factory: graphene.Factory(graphene.Config{TRH: trh, K: 2, Rows: multi.RowsPerBank, Timing: timing, Rowpress: true}),
			}
		},
		mkGen: func() trace.Generator {
			var i int64
			return trace.FromFunc("dwell", func() (trace.Access, bool) {
				if i >= 70_000 {
					return trace.Access{}, false
				}
				i++
				a := trace.Access{Bank: int(i % 3), Row: int((i * 29) % 512), Gap: dram.Time(i%5) * dram.Nanosecond}
				if i > 1000 && i%7 == 0 {
					a.Dwell = dram.Time(i%4) * timing.NRAS()
				}
				return a, true
			})
		},
	})

	// DDR5 profile: RFM banks (RAAIMT > 0) interleave a Refresh Management
	// command with the ACT stream. The dwell-carrying trace drives Graphene
	// RowPress and the duration-weighted oracle; the same trace replays
	// under pure timing (no scheme, no oracle) and under PARA.
	ddr5 := dram.DDR5()
	ddr5Gen := func() trace.Generator {
		var i int64
		return trace.FromFunc("ddr5-dwell", func() (trace.Access, bool) {
			if i >= 50_000 {
				return trace.Access{}, false
			}
			i++
			a := trace.Access{Bank: int(i % 4), Row: int((i * 31) % 24), Gap: dram.Time(i%3) * dram.Nanosecond}
			if i%5 == 0 {
				a.Dwell = dram.Time(i%4) * ddr5.NRAS()
			}
			return a, true
		})
	}
	for _, leg := range []struct {
		name    string
		factory func() mitigation.Factory
		trh     int64
	}{
		{"graphene-rowpress", func() mitigation.Factory {
			return graphene.Factory(graphene.Config{TRH: trh, K: 2, Rows: multi.RowsPerBank, Timing: ddr5, Rowpress: true})
		}, trh},
		{"timing", func() mitigation.Factory { return nil }, 0},
		{"para", func() mitigation.Factory { return para.Factory(para.Classic(0.01, multi.RowsPerBank, 5)) }, trh},
	} {
		cases = append(cases, diffCase{
			name: "ddr5/" + leg.name,
			mkCfg: func() Config {
				return Config{Geometry: multi, Timing: ddr5, Factory: leg.factory(), TRH: leg.trh}
			},
			mkGen: ddr5Gen,
		})
	}

	// DDR5 Graphene whose triggers land on RFM-due ACTs: two hammered
	// pairs per bank at near-back-to-back gaps, so an NRR and an RFM fall
	// on the same ACT, the last of a batched run. Both paths issue the RFM
	// first and apply the NRR after it; TestDDR5TriggerOnRFMACT counts
	// those ACTs and pins the bank state on each.
	cases = append(cases, diffCase{
		name: "ddr5/graphene-rfm-trigger",
		mkCfg: func() Config {
			return Config{Geometry: multi, Timing: ddr5, Factory: grapheneFactory(trh, multi.RowsPerBank, ddr5), TRH: trh}
		},
		mkGen: func() trace.Generator {
			var i int64
			return trace.FromFunc("ddr5-rfm-trigger", func() (trace.Access, bool) {
				if i >= 60_000 {
					return trace.Access{}, false
				}
				i++
				a := trace.Access{Bank: int(i % 2), Row: 100 + 2*int(i/2%2), Gap: dram.Time(i%3) * dram.Nanosecond}
				if i%9 == 0 {
					a.Row = int(i*37) % multi.RowsPerBank
				}
				if i%61 == 0 {
					a.Gap = dram.Microsecond
				}
				return a, true
			})
		},
	})

	// Chunk-boundary lengths: empty trace, one access, one access around a
	// full chunk, and several chunks plus a partial tail.
	for _, n := range []int{0, 1, streamChunk - 1, streamChunk, streamChunk + 1, 3*streamChunk + 7} {
		n := n
		cases = append(cases, diffCase{
			name: fmt.Sprintf("boundary/%d", n),
			mkCfg: func() Config {
				return Config{
					Geometry: oneBank(rows), Timing: timing,
					Factory: grapheneFactory(trh, rows, timing), TRH: trh,
				}
			},
			mkGen: func() trace.Generator {
				accs := make([]trace.Access, n)
				for i := range accs {
					accs[i] = trace.Access{Bank: 0, Row: (i * 13) % rows}
				}
				return trace.FromSlice("boundary", accs)
			},
		})
	}
	return cases
}

func TestStreamingMatchesBuffered(t *testing.T) {
	for _, tc := range diffCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := runBuffered(tc.mkCfg(), tc.mkGen())
			if err != nil {
				t.Fatalf("buffered: %v", err)
			}
			got, err := Run(tc.mkCfg(), tc.mkGen())
			if err != nil {
				t.Fatalf("streaming: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("streaming result diverges from buffered:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestDDR5TriggerOnRFMACT pins what the ddr5/graphene-rfm-trigger leg of
// diffCases is there for. It replays each bank's ACTs through replayOne
// and counts the ACTs on which a Graphene trigger and an RFM both land
// without a refresh-boundary crossing; there must be at least one. The
// same ACTs replay through replayRun in blocks that end on each such ACT,
// so it is the last ACT of a batched run, and the bank's clock, busy time
// and counters must then match replayOne's. The order RFM first, NRR
// after moves the bank clock that the next arrival counts from, which a
// Result rarely shows: a later idle refresh absorbs the shift.
func TestDDR5TriggerOnRFMACT(t *testing.T) {
	var cfg Config
	var gen trace.Generator
	for _, tc := range diffCases(t) {
		if tc.name == "ddr5/graphene-rfm-trigger" {
			cfg, gen = tc.mkCfg(), tc.mkGen()
		}
	}
	if gen == nil {
		t.Fatal("diffCases has no ddr5/graphene-rfm-trigger leg")
	}
	perBank := make([][]trace.Access, cfg.Geometry.Banks())
	for a, ok := gen.Next(); ok; a, ok = gen.Next() {
		perBank[a.Bank] = append(perBank[a.Bank], a)
	}
	newState := func() *bankState {
		bank, err := dram.NewBank(cfg.Timing, cfg.Geometry.RowsPerBank)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cfg.Factory()
		if err != nil {
			t.Fatal(err)
		}
		return &bankState{bank: bank, mit: m, nextREF: cfg.Timing.TREFI}
	}
	hits := 0
	for bi, accs := range perBank {
		ref, bat := newState(), newState()
		var refOut, batOut bankOut
		var rows []int32
		var gaps []dram.Time
		for k, a := range accs {
			before := ref.bank.Stats()
			if err := ref.replayOne(a, bi, &refOut); err != nil {
				t.Fatal(err)
			}
			rows, gaps = append(rows, int32(a.Row)), append(gaps, a.Gap)
			after := ref.bank.Stats()
			hit := after.RFMCommands > before.RFMCommands && after.NRRCommands > before.NRRCommands &&
				after.REFCommands == before.REFCommands
			if !hit && k < len(accs)-1 {
				continue
			}
			if hit {
				hits++
			}
			if err := bat.replayRun(rows, gaps, nil, bi, &batOut); err != nil {
				t.Fatal(err)
			}
			rows, gaps = rows[:0], gaps[:0]
			if bat.now != ref.now || bat.bank.BusyUntil() != ref.bank.BusyUntil() || bat.bank.Stats() != ref.bank.Stats() {
				t.Fatalf("bank %d ACT %d: batched run ends at now %v busy %v %+v, replayOne at now %v busy %v %+v",
					bi, k, bat.now, bat.bank.BusyUntil(), bat.bank.Stats(), ref.now, ref.bank.BusyUntil(), ref.bank.Stats())
			}
		}
	}
	if hits == 0 {
		t.Fatal("no Graphene trigger landed on an RFM-due ACT")
	}
	t.Logf("%d triggers on RFM-due ACTs", hits)
}

func TestStreamingErrorBehaviorMatchesBuffered(t *testing.T) {
	cfg := Config{Geometry: oneBank(64), Timing: smallTiming()}
	bad := []struct {
		name string
		accs []trace.Access
	}{
		{"bank", []trace.Access{{Bank: 0, Row: 1}, {Bank: 5, Row: 0}}},
		{"row", []trace.Access{{Bank: 0, Row: 1}, {Bank: 0, Row: 64}}},
		// The invalid access arrives mid-chunk while earlier chunks are
		// already replaying: the partition error must still win.
		{"late", func() []trace.Access {
			accs := make([]trace.Access, 3*streamChunk)
			for i := range accs {
				accs[i] = trace.Access{Bank: 0, Row: i % 64}
			}
			accs[len(accs)-1].Row = -1
			return accs
		}()},
	}
	for _, tc := range bad {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, berr := runBuffered(cfg, trace.FromSlice("bad", tc.accs))
			_, serr := Run(cfg, trace.FromSlice("bad", tc.accs))
			if berr == nil || serr == nil {
				t.Fatalf("invalid access accepted: buffered=%v streaming=%v", berr, serr)
			}
			if berr.Error() != serr.Error() {
				t.Errorf("error text diverges:\n buffered:  %v\n streaming: %v", berr, serr)
			}
		})
	}
}

// TestStreamingPartitionerErrorDrains hits the partitioner's mid-trace
// failure path at full streaming pressure: many banks with chunks already
// queued, an out-of-range access in the middle of the trace, and a long
// valid tail behind it. The run must fail with the partitioner's error,
// the bank goroutines must drain without deadlock (chunks keep recycling
// after close), and the error must match runBuffered's contract exactly.
func TestStreamingPartitionerErrorDrains(t *testing.T) {
	const nbanks = 8
	const rows = 64
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: nbanks, RowsPerBank: rows}
	cfg := Config{Geometry: geo, Timing: smallTiming()}
	total := 20 * streamChunk
	mkGen := func() trace.Generator {
		var i int
		return trace.FromFunc("midfail", func() (trace.Access, bool) {
			if i >= total {
				return trace.Access{}, false
			}
			i++
			a := trace.Access{Bank: (i - 1) % nbanks, Row: (i - 1) % rows}
			if i-1 == total/2 {
				a.Row = rows // out of range mid-trace
			}
			return a, true
		})
	}

	_, berr := runBuffered(cfg, mkGen())
	if berr == nil {
		t.Fatal("buffered path accepted the out-of-range access")
	}

	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg, mkGen())
		done <- outcome{res, err}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("streaming replay deadlocked after partitioner error")
	}
	if got.err == nil {
		t.Fatal("streaming path accepted the out-of-range access")
	}
	if got.err.Error() != berr.Error() {
		t.Errorf("error text diverges:\n buffered:  %v\n streaming: %v", berr, got.err)
	}
	if !reflect.DeepEqual(got.res, Result{}) {
		t.Errorf("failed run leaked a partial Result: %+v", got.res)
	}
}

// FuzzStreamingMatchesBuffered drives both replay paths with a generated
// trace shape and requires identical Results (or identical failure). The
// input also picks the device: the small DDR4-shaped timing, or DDR5,
// whose RFM cadence (every RAAIMT ACTs) cuts the batched runs.
func FuzzStreamingMatchesBuffered(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(500), uint16(3), false)
	f.Add(int64(2), uint8(4), uint16(5000), uint16(97), false)
	f.Add(int64(3), uint8(8), uint16(2*streamChunk+5), uint16(13), false)
	f.Add(int64(4), uint8(2), uint16(0), uint16(1), false)
	f.Add(int64(5), uint8(1), uint16(5000), uint16(3), true)
	f.Add(int64(6), uint8(3), uint16(3*streamChunk+1), uint16(7), true)
	f.Fuzz(func(t *testing.T, seed int64, banks uint8, total uint16, stride uint16, ddr5 bool) {
		nbanks := int(banks%8) + 1
		rows := 1 << 10
		timing := smallTiming()
		if ddr5 {
			timing = dram.DDR5()
		}
		geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: nbanks, RowsPerBank: rows}
		mkGen := func() trace.Generator {
			var i int64
			return trace.FromFunc("fuzz", func() (trace.Access, bool) {
				if i >= int64(total) {
					return trace.Access{}, false
				}
				i++
				x := i*int64(stride) + seed
				return trace.Access{
					Bank: int(uint64(x) % uint64(nbanks)),
					Row:  int(uint64(x*31) % uint64(rows)),
					Gap:  dram.Time(uint64(x) % 3000),
				}, true
			})
		}
		mkCfg := func() Config {
			return Config{
				Geometry: geo, Timing: timing,
				Factory: grapheneFactory(2000, rows, timing), TRH: 2000,
			}
		}
		want, berr := runBuffered(mkCfg(), mkGen())
		got, serr := Run(mkCfg(), mkGen())
		if (berr == nil) != (serr == nil) {
			t.Fatalf("error divergence: buffered=%v streaming=%v", berr, serr)
		}
		if berr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("streaming diverges from buffered:\n got %+v\nwant %+v", got, want)
		}
	})
}
