package memctrl

import (
	"context"
	"fmt"
	"io"

	"graphene/internal/dram"
	"graphene/internal/faultinject"
	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/trace"
)

// maxBatchRun caps how many ACTs one event-horizon run may cover, bounding
// the per-bank start-time scratch. The cap is far above the typical
// refresh horizon (a tREFI holds on the order of a hundred back-to-back
// row cycles), so it only binds on traces whose gaps outrun the refresh
// clock — and there the loop simply re-enters with the next slice.
const maxBatchRun = 4096

// replayRun advances one bank through a columnar run of ACTs — the batched
// replay core (DESIGN.md §11) every bank takes except CRA's (see
// replayColBlock). Instead of the scalar path's per-ACT
// gap/refresh-check/activate/observe/apply sequence, it:
//
//  1. walks the occupancy recurrence forward, each ACT holding the bank
//     for ActCycle(dwell), and ends the run before the first ACT whose
//     arrival crosses the next auto-refresh boundary (the event horizon),
//     at the run cap, or on the ACT that makes a DDR5 RFM due —
//     precomputing every ACT start time in the run, with no per-ACT
//     branch on the refresh clock or the RAA counter;
//  2. hands the whole run to the mitigator's AppendOnActivateBatch, which
//     consumes ACTs until its first append (the batch contract: an applied
//     refresh changes the bank timeline, so later precomputed times would
//     go stale);
//  3. feeds the consumed prefix to the oracle, accounts the bank's ACT
//     run and the RFM it made due (activateRun), and applies any
//     refreshes after both — when and in the order the scalar path would.
//
// An ACT that crosses a refresh boundary replays through the scalar
// replayOne, which runs catchUpREF and everything else; runs resume after
// it. Every counter, event, flip, and timestamp is byte-identical to
// replaying the same ACTs through replayOne (the golden differential
// suite and TestStreamingMatchesBuffered pin this), and the steady state
// allocates nothing (TestReplayBatchZeroAlloc).
func (s *bankState) replayRun(rows []int32, gaps, dwells []dram.Time, bi int, out *bankOut) error {
	timing := s.bank.Timing()
	trc, trp := timing.TRC, timing.TRP
	i, n := 0, len(rows)
	// With no mitigator, oracle, or remap, nothing consumes per-ACT start
	// times, so the horizon walk collapses to the bare occupancy recurrence
	// with no scratch writes — the trigger-light floor the bench-replay gate
	// asserts on. Rows were range-validated upstream (replayColBlock),
	// matching the protected path, which also defers the range check to
	// its oracle/remap loop. A dwell column disqualifies the collapse:
	// per-ACT occupancy varies.
	pureTiming := s.mit == nil && s.oracle == nil && s.remap == nil && dwells == nil
	for i < n {
		horizon := s.nextREF
		if s.now+gaps[i] >= horizon {
			// ACT i crosses the refresh boundary: replay it through the
			// scalar path, which interleaves catchUpREF, the tick, and the
			// activation in the canonical order. Rare — once per tREFI.
			a := trace.Access{Bank: bi, Row: int(rows[i]), Gap: gaps[i]}
			if dwells != nil {
				a.Dwell = dwells[i]
			}
			if err := s.replayOne(a, bi, out); err != nil {
				return err
			}
			i++
			continue
		}
		// The run ends at the cap, the block's end, or the ACT that makes
		// the next RFM due; it keeps at least one ACT, as replayOne
		// activates before it checks for an owed RFM.
		lim := min(n-i, maxBatchRun)
		if r := s.bank.ACTsToRFM(); r < lim {
			lim = max(r, 1)
		}
		if pureTiming {
			// First ACT: completion time may trail busyUntil (a just-applied
			// refresh occupies the bank past s.now), so take the full max
			// once. After it, arrival = busy + gap, so each step is
			// busy += max(gap, 0) + tRC.
			busy := max(s.bank.BusyUntil(), s.now+gaps[i]) + trc
			k := 1
			for _, gap := range gaps[i+1 : i+lim] {
				arr := busy + gap
				if arr >= horizon {
					break
				}
				if gap > 0 {
					busy = arr
				}
				busy += trc
				k++
			}
			s.activateRun(k, dram.Time(k)*trc, busy, out)
			i += k
			continue
		}
		// Event horizon: precompute start times through the occupancy
		// recurrence until an arrival reaches the refresh boundary. Within
		// a refresh-free run busyUntil never exceeds an arrival after the
		// first ACT (gaps are non-negative and s.now tracks completion),
		// but the max is kept unconditionally so a generator-driven
		// negative gap still replays byte-identically to the scalar path.
		// A dwell weighs the step as ActCycle does: max(tRC, dwell+tRP).
		busy := s.bank.BusyUntil()
		now := s.now
		times := s.runTimes[:0]
		var dw []dram.Time
		if dwells != nil {
			dw = dwells[i : i+lim]
		}
		for k, gap := range gaps[i : i+lim] {
			arr := now + gap
			if arr >= horizon {
				break
			}
			start := max(arr, busy)
			busy = start + trc
			if dw != nil {
				busy = start + max(dw[k]+trp, trc)
			}
			now = busy
			times = append(times, start)
		}
		s.runTimes = times

		consumed := len(times)
		vrs := s.vrScratch[:0]
		if s.mit != nil {
			var nc int
			var dcol []dram.Time
			if dwells != nil {
				dcol = dwells[i : i+consumed]
			}
			vrs, nc = s.mit.AppendOnActivateBatch(vrs, rows[i:i+consumed], times, dcol)
			s.vrScratch = vrs
			if nc <= 0 || nc > consumed {
				// A scheme that consumes nothing would spin this loop
				// forever and one that consumes past its append replayed
				// ACTs against stale times; both are contract bugs worth
				// failing loudly.
				return fmt.Errorf("memctrl: bank %d: scheme %q batch consumed %d of %d ACTs", bi, s.mit.Name(), nc, consumed)
			}
			consumed = nc
		}
		// The consumed prefix's occupancy, weighed the way the walk was.
		occ, last := dram.Time(consumed)*trc, trc
		if dwells != nil {
			occ = 0
			for _, d := range dwells[i : i+consumed] {
				last = max(d+trp, trc)
				occ += last
			}
		}

		if s.oracle != nil || s.remap != nil {
			nrows := s.bank.Rows()
			for k := 0; k < consumed; k++ {
				physRow := s.phys(int(rows[i+k]))
				if physRow < 0 || physRow >= nrows {
					return fmt.Errorf("memctrl: bank %d: activate row %d out of range [0,%d)", bi, physRow, nrows)
				}
				if s.oracle != nil {
					var dw dram.Time
					if dwells != nil {
						dw = dwells[i+k]
					}
					s.flipStage = s.oracle.AppendActivateOpen(s.flipStage[:0], physRow, times[k], dw)
					for _, f := range s.flipStage {
						out.flips = append(out.flips, BankFlip{Bank: bi, Flip: f})
					}
				}
			}
		}

		s.activateRun(consumed, occ, times[consumed-1]+last, out)
		if len(vrs) > 0 {
			if err := s.apply(vrs, s.now); err != nil {
				return err
			}
		}
		i += consumed
	}
	return nil
}

// activateRun accounts a walked run of count ACTs on the bank — busy is
// their summed occupancy, end the last one's completion — and, when the
// run's last ACT made a DDR5 RFM due, issues the RFM right behind it, as
// replayOne does. s.now moves to when the bank is done with both: the
// time the run's refreshes apply at.
func (s *bankState) activateRun(count int, busy, end dram.Time, out *bankOut) {
	s.bank.ActivateRun(count, busy, end)
	out.acts += int64(count)
	s.now = end
	if s.bank.RFMDue() {
		// Cannot fail: an RFM is only due when the timing enables RFM.
		s.now, _ = s.bank.RefreshManagement(end)
	}
}

// ColBlockSource streams a trace as columnar per-bank blocks — the shape
// trace.BlockReader.NextCols produces, and the one ingest route into the
// replay core. Every row/gap pair of a returned block belongs to
// ColBlock.Bank in stream order, buf's columns are reused for the block's
// backing storage, and io.EOF marks a clean end of trace. Run adapts a
// trace.Generator into this shape with the serial partitioner in
// partition.go.
type ColBlockSource interface {
	Name() string
	NextCols(buf trace.ColBlock) (trace.ColBlock, error)
}

// blockDepth is how many blocks may queue per bank before the router
// blocks (backpressure). Blocks arrive pre-partitioned and carry up to a
// segment's (or a partitioner chunk's) worth of one bank's accesses, so a
// shallow queue is enough to keep banks busy while bounding peak memory.
const blockDepth = 2

// replayColBlocks routes src's blocks into per-bank channels drained by
// one sched job per bank. Block buffers recycle through a shared free
// pool: the router decodes into a recycled buffer, the bank job returns it
// after replay, so steady-state allocation is O(banks × blockDepth)
// buffers regardless of trace length.
//
// A bank job stores its first error in its bankOut and keeps draining
// (never failing the pool, which would strand the router mid-send), and a
// router error — decode failure, out-of-range access, injected partition
// fault — fails the run even if every started bank replayed cleanly.
func replayColBlocks(cfg Config, src ColBlockSource, states []*bankState) ([]bankOut, error) {
	nbanks := len(states)
	outs := make([]bankOut, nbanks)

	// The budget covers every buffer that can be out at once: blockDepth
	// queued plus one replaying per bank, plus the one the router is
	// filling. The generator partitioner holds one more fill per bank, but
	// it swaps each block it returns for the buffer it is handed, so its
	// fills never draw on the budget. Buffers allocate lazily, so a trace
	// touching few banks circulates few buffers.
	budget := nbanks*(blockDepth+1) + 1
	free := make(chan trace.ColBlock, budget)
	made := 0
	buffer := func() trace.ColBlock {
		select {
		case b := <-free:
			return b
		default:
		}
		if made < budget {
			made++
			return trace.ColBlock{} // NextCols sizes the columns to the block
		}
		return <-free
	}

	chans := make([]chan trace.ColBlock, nbanks)
	jobs := make([]sched.Job, nbanks)
	for bi := range states {
		chans[bi] = make(chan trace.ColBlock, blockDepth)
		bi := bi
		jobs[bi] = sched.Job{
			Label: fmt.Sprintf("bank %d", bi),
			Do: func(context.Context) error {
				s, out := states[bi], &outs[bi]
				for blk := range chans[bi] {
					if out.err == nil {
						out.err = replayColBlock(cfg, nbanks, s, bi, out, blk)
					}
					// Recycle even after an error: the router may be blocked
					// waiting for a free buffer. The free channel holds the
					// whole budget, so this send never blocks.
					free <- trace.ColBlock{Rows: blk.Rows[:0], Gaps: blk.Gaps[:0], Dwells: blk.Dwells[:0]}
				}
				// Errors live in outs: failing the pool would cancel sibling
				// jobs and strand the router mid-send.
				return nil
			},
		}
	}

	routed := make(chan error, 1)
	go func() {
		routed <- func() error {
			defer func() {
				for _, c := range chans {
					close(c)
				}
			}()
			for {
				blk, err := src.NextCols(buffer())
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if blk.Bank < 0 || blk.Bank >= nbanks {
					// Route the whole block through the shared validator so
					// the failure emits the same validate_fail event an
					// out-of-range access does.
					row := 0
					if len(blk.Rows) > 0 {
						row = int(blk.Rows[0])
					}
					return validateAccess(cfg, nbanks, trace.Access{Bank: blk.Bank, Row: row})
				}
				if err := cfg.Fault.Hit(faultinject.SitePartition); err != nil {
					return err
				}
				chans[blk.Bank] <- blk
			}
		}()
	}()

	// Every job gets a worker (Jobs = nbanks = len(jobs)), so each bank's
	// channel is guaranteed a drainer and the router cannot deadlock.
	if err := sched.Run(sched.Options{Jobs: nbanks}, jobs); err != nil {
		<-routed
		return nil, err
	}
	if err := <-routed; err != nil {
		return nil, err
	}
	return outs, nil
}

// replayColBlock validates and replays one block on its bank. Validation
// rides with the bank job, so the router stays on its decode hot path; it
// emits the same validate_fail events and errors wherever it fires. A
// panic anywhere in the replay (a buggy scheme, or an injected fault) is
// recovered into the bank's error instead of crashing the process: the job
// keeps draining and recycling blocks, so the router never deadlocks
// behind a dead consumer.
//
// Blocks replay through the batched core (replayRun) — event-horizon runs,
// one mitigator batch call and one bank accounting call per run. Only a
// scheme that reports extra DRAM traffic (CRA's counter cache) replays
// per ACT through replayOne, because its stall must land between ACTs.
func replayColBlock(cfg Config, nbanks int, s *bankState, bi int, out *bankOut, blk trace.ColBlock) (err error) {
	rows := cfg.Geometry.RowsPerBank
	for _, r := range blk.Rows {
		if r < 0 || int(r) >= rows {
			return validateAccess(cfg, nbanks, trace.Access{Bank: blk.Bank, Row: int(r)})
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("memctrl: bank %d: replay panic: %v", bi, r)
		}
	}()
	if err := cfg.Fault.Hit(faultinject.SiteReplay); err != nil {
		return fmt.Errorf("memctrl: bank %d: %w", bi, err)
	}
	// A segment without the dwell column decodes to a length-zero Dwells
	// slice; nil here routes the run down the fixed-tRC fast path.
	var dwells []dram.Time
	if len(blk.Dwells) != 0 {
		dwells = blk.Dwells
	}
	if s.extraFn != nil {
		for k, r := range blk.Rows {
			a := trace.Access{Bank: blk.Bank, Row: int(r), Gap: blk.Gaps[k]}
			if dwells != nil {
				a.Dwell = dwells[k]
			}
			if err := s.replayOne(a, bi, out); err != nil {
				return err
			}
		}
	} else if err := s.replayRun(blk.Rows, blk.Gaps, dwells, bi, out); err != nil {
		return err
	}
	if cfg.Obs != nil {
		// One progress event per drained block: coarse enough to stay off
		// the per-ACT path, fine enough that a stuck sweep is visible
		// mid-run.
		scheme := "none"
		if s.mit != nil {
			scheme = s.mit.Name()
		}
		cfg.Obs.Emit(obs.Event{
			Kind: obs.KindReplayChunk, Scheme: scheme,
			Bank: bi, Time: int64(s.now), Value: out.acts,
		})
	}
	return nil
}
