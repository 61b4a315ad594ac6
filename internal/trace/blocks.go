package trace

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
)

// Blocks is a trace decoded once into the per-bank columnar blocks a
// BlockReader streams (one bank's share of a segment each), for a trace
// replayed more than once: 12 bytes per access, 20 with a dwell column,
// no global order. Every Source cursor shares the columns, which are
// read-only.
type Blocks struct {
	Name   string
	Accs   int64
	blocks []ColBlock
}

// LoadBlocks reads a trace file in either format into Blocks. The fallback
// name for headerless text traces is the file's base name.
func LoadBlocks(path string) (*Blocks, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBlocks(f, filepath.Base(path))
}

// ReadBlocks reads a trace in either format into Blocks. Binary streams
// decode block by block with BlockReader.NextCols into fresh columns, so
// every codec check runs once, here. Text streams parse with ReadAll and
// are cut into blocks by the binary writer: encoded, then decoded as a
// binary stream, so both formats load the same accesses to the same
// blocks. fallbackName applies only to text traces without a header line.
func ReadBlocks(r io.Reader, fallbackName string) (*Blocks, error) {
	src := bufio.NewReader(r)
	if !IsBinary(src) {
		t, err := ReadAll(src, fallbackName)
		if err != nil {
			return nil, err
		}
		var bin bytes.Buffer
		if _, err := WriteBinary(&bin, FromSlice("", t.Accs)); err != nil {
			return nil, err
		}
		b, err := ReadBlocks(&bin, "")
		if err != nil {
			return nil, err
		}
		b.Name = t.Name
		return b, nil
	}
	br, err := NewBlockReader(src)
	if err != nil {
		return nil, err
	}
	b := &Blocks{Name: br.Name()}
	for {
		blk, err := br.NextCols(ColBlock{})
		if err == io.EOF {
			b.Accs = br.Decoded()
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		b.blocks = append(b.blocks, blk)
	}
}

// Dims returns the smallest geometry that fits the trace, as Trace.Dims
// does: highest bank with an access + 1 and highest row + 1 (both 0 for
// an empty trace). A binary header that declares more banks than the
// trace touches does not count.
func (b *Blocks) Dims() (banks, rows int) {
	for _, blk := range b.blocks {
		banks = max(banks, blk.Bank+1)
		for _, r := range blk.Rows {
			rows = max(rows, int(r)+1)
		}
	}
	return banks, rows
}

// Source returns a fresh cursor over the shared blocks, the shape
// memctrl.RunBlocks consumes. Any number of cursors may replay one Blocks
// concurrently.
func (b *Blocks) Source() *BlockCursor { return &BlockCursor{b: b} }

// BlockCursor replays a Blocks value's blocks in order. NextCols ignores
// buf and hands out the shared, read-only columns themselves.
type BlockCursor struct {
	b *Blocks
	i int
}

// Name returns the trace name.
func (c *BlockCursor) Name() string { return c.b.Name }

// NextCols returns the next shared block, or io.EOF after the last.
func (c *BlockCursor) NextCols(ColBlock) (ColBlock, error) {
	if c.i == len(c.b.blocks) {
		return ColBlock{}, io.EOF
	}
	c.i++
	return c.b.blocks[c.i-1], nil
}
