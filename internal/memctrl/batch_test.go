package memctrl

import (
	"strings"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/mitigation"
	"graphene/internal/trace"
	"graphene/internal/trr"
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
