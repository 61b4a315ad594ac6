package memctrl

import (
	"io"

	"graphene/internal/trace"
)

// streamChunk is how many ACTs the generator partitioner gathers per bank
// before handing the block to the router: large enough to amortize channel
// synchronization across thousands of ACTs, small enough that a bank's
// columns stay in cache.
const streamChunk = 2048

// genSource partitions a trace.Generator into per-bank columnar blocks —
// the ColBlockSource that lets Run share RunBlocks' router. It validates
// each access as it arrives (a generator, unlike the binary codec, carries
// no range limits), appends it to its bank's fill columns, and hands the
// fill off as a block once it holds streamChunk ACTs. At the end of the
// trace it flushes the partial fills in bank order.
type genSource struct {
	cfg   Config
	gen   trace.Generator
	fills []trace.ColBlock // one per bank
	flush int              // next bank to flush once the generator is drained; -1 before
}

func (g *genSource) Name() string { return g.gen.Name() }

// NextCols returns the next full (or, at the end, partial) bank block and
// keeps buf's columns as that bank's new fill, so the partitioner recycles
// exactly the buffers the router hands it. A block gets a dwell column only
// once one of its ACTs carries a dwell, with earlier ACTs backfilled as 0,
// so dwell-less traces keep the two-column fast path.
func (g *genSource) NextCols(buf trace.ColBlock) (trace.ColBlock, error) {
	nbanks, rows := len(g.fills), g.cfg.Geometry.RowsPerBank
	for g.flush < 0 {
		a, ok := g.gen.Next()
		if !ok {
			g.flush = 0
			break
		}
		// Inline bounds check: validateAccess copies the whole Config, so
		// it only runs to report a failure.
		if uint(a.Bank) >= uint(nbanks) || uint(a.Row) >= uint(rows) {
			return trace.ColBlock{}, validateAccess(g.cfg, nbanks, a)
		}
		f := &g.fills[a.Bank]
		if a.Dwell != 0 || len(f.Dwells) != 0 {
			for len(f.Dwells) < len(f.Rows) {
				f.Dwells = append(f.Dwells, 0)
			}
			f.Dwells = append(f.Dwells, a.Dwell)
		}
		f.Rows = append(f.Rows, int32(a.Row))
		f.Gaps = append(f.Gaps, a.Gap)
		if len(f.Rows) == streamChunk {
			return g.handoff(a.Bank, buf), nil
		}
	}
	for ; g.flush < nbanks; g.flush++ {
		if len(g.fills[g.flush].Rows) != 0 {
			return g.handoff(g.flush, buf), nil
		}
	}
	return trace.ColBlock{}, io.EOF
}

// handoff returns bank's fill as a block and makes buf its new fill.
func (g *genSource) handoff(bank int, buf trace.ColBlock) trace.ColBlock {
	blk := g.fills[bank]
	blk.Bank = bank
	g.fills[bank] = trace.ColBlock{Rows: buf.Rows[:0], Gaps: buf.Gaps[:0], Dwells: buf.Dwells[:0]}
	return blk
}
