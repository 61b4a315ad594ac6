package trace

import (
	"bytes"
	"io"
	"testing"

	"graphene/internal/dram"
)

// sourceCursor checks decoded blocks against the accesses the stream was
// encoded from: each block must carry the next accesses of its bank, in
// stream order.
type sourceCursor struct {
	want map[int][]Access
	next map[int]int
}

func newSourceCursor(accs []Access) *sourceCursor {
	c := &sourceCursor{want: map[int][]Access{}, next: map[int]int{}}
	for _, a := range accs {
		c.want[a.Bank] = append(c.want[a.Bank], a)
	}
	return c
}

// check matches block bi's columns, and its struct view when accs is not
// nil, against the source, then advances the block's bank.
func (c *sourceCursor) check(t *testing.T, bi int, cb ColBlock, accs []Access) {
	t.Helper()
	src := c.want[cb.Bank][c.next[cb.Bank]:]
	n := len(cb.Rows)
	if n == 0 || n > len(src) || len(cb.Gaps) != n || (len(cb.Dwells) != 0 && len(cb.Dwells) != n) {
		t.Fatalf("block %d: bank %d columns %d/%d/%d, source has %d accesses left",
			bi, cb.Bank, n, len(cb.Gaps), len(cb.Dwells), len(src))
	}
	if accs != nil && len(accs) != n {
		t.Fatalf("block %d: struct view carries %d accesses, columns %d", bi, len(accs), n)
	}
	for i, w := range src[:n] {
		var dwell dram.Time
		if len(cb.Dwells) != 0 {
			dwell = cb.Dwells[i]
		}
		if int(cb.Rows[i]) != w.Row || cb.Gaps[i] != w.Gap || dwell != w.Dwell {
			t.Fatalf("block %d access %d: columns (%d, %d, %d), source %+v", bi, i, cb.Rows[i], cb.Gaps[i], dwell, w)
		}
		if accs != nil && accs[i] != w {
			t.Fatalf("block %d access %d: struct %+v, source %+v", bi, i, accs[i], w)
		}
	}
	c.next[cb.Bank] += n
}

// done requires every source access to have been decoded.
func (c *sourceCursor) done(t *testing.T) {
	t.Helper()
	for bank, ws := range c.want {
		if c.next[bank] != len(ws) {
			t.Errorf("bank %d: blocks carry %d accesses, source has %d", bank, c.next[bank], len(ws))
		}
	}
}

// TestNextColsMatchesNext decodes the same binary stream through NextCols
// and through its struct view Next, and checks every block of both against
// the source accesses — same bank sequence, rows, gaps and dwells, same
// clean EOF — including across segment boundaries where per-bank delta
// state carries over, and with the two interleaved on one reader (the
// contract that Next/NextCols share one delta-state cursor).
func TestNextColsMatchesNext(t *testing.T) {
	// The first segment is dwell-free, the second carries the column.
	dwell := mixedTrace(segmentAccs+5000, 4, 3)
	for i := segmentAccs; i < len(dwell); i += 3 {
		dwell[i].Dwell = dram.Time(1000 + i)
	}
	cases := map[string][]Access{
		"single-bank":   mixedTrace(5000, 1, 1),
		"multi-bank":    mixedTrace(20_000, 7, 2),
		"multi-segment": mixedTrace(segmentAccs*2+123, 5, 4),
		"dwell":         dwell,
	}
	for name, accs := range cases {
		accs := accs
		t.Run(name, func(t *testing.T) {
			data := encodeBinary(t, name, accs)
			structs, err := NewBlockReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			cols, err := NewBlockReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			src := newSourceCursor(accs)
			var sbuf []Access
			var cbuf ColBlock
			for bi := 0; ; bi++ {
				sb, serr := structs.Next(sbuf)
				cb, cerr := cols.NextCols(cbuf)
				if (serr == nil) != (cerr == nil) {
					t.Fatalf("block %d: struct err %v, columnar err %v", bi, serr, cerr)
				}
				if serr == io.EOF {
					break
				}
				if serr != nil {
					t.Fatalf("block %d: %v", bi, serr)
				}
				if cb.Bank != sb.Bank {
					t.Fatalf("block %d: columnar bank %d, struct bank %d", bi, cb.Bank, sb.Bank)
				}
				src.check(t, bi, cb, sb.Accs)
				sbuf, cbuf = sb.Accs, cb
			}
			src.done(t)
		})
	}

	// Interleaved decode on a single reader, against the source.
	accs := mixedTrace(segmentAccs+4096, 6, 9)
	mixed, err := NewBlockReader(bytes.NewReader(encodeBinary(t, "interleave", accs)))
	if err != nil {
		t.Fatal(err)
	}
	src := newSourceCursor(accs)
	for bi := 0; ; bi++ {
		var cb ColBlock
		var view []Access
		var err error
		if bi%2 == 0 {
			cb, err = mixed.NextCols(ColBlock{})
		} else {
			var mb Block
			mb, err = mixed.Next(nil)
			cb.Bank, view = mb.Bank, mb.Accs
			for _, a := range mb.Accs {
				cb.Rows = append(cb.Rows, int32(a.Row))
				cb.Gaps = append(cb.Gaps, a.Gap)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("block %d: %v", bi, err)
		}
		src.check(t, bi, cb, view)
	}
	src.done(t)
}

// TestNextColsRejectsTornTail: the columnar decoder applies the same
// torn-tail discipline as the struct decoder — a truncated stream is a
// non-EOF error, never a silently short trace.
func TestNextColsRejectsTornTail(t *testing.T) {
	data := encodeBinary(t, "torn", mixedTrace(50_000, 3, 5))
	for _, cut := range []int{len(data) - 1, len(data) * 2 / 3, len(data) / 3} {
		br, err := NewBlockReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header: %v", cut, err)
		}
		var buf ColBlock
		for {
			buf, err = br.NextCols(buf)
			if err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Errorf("cut %d: torn tail decoded to clean EOF", cut)
		}
	}
}
