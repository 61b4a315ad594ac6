package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphene/internal/dram"
)

// sourceBlocks reads every block of a fresh cursor over b.
func sourceBlocks(t *testing.T, b *Blocks) []ColBlock {
	t.Helper()
	var out []ColBlock
	src := b.Source()
	for {
		blk, err := src.NextCols(ColBlock{})
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blk)
	}
}

// TestReadBlocksTextMatchesBinary: a text trace cut into blocks yields
// exactly the blocks its binary encoding decodes to — same banks, order,
// columns and per-segment dwell columns — and both carry every source
// access in per-bank order.
func TestReadBlocksTextMatchesBinary(t *testing.T) {
	// The first segment is dwell-free, the second carries the column.
	dwell := mixedTrace(segmentAccs+5000, 4, 3)
	for i := segmentAccs; i < len(dwell); i += 3 {
		dwell[i].Dwell = dram.Time(1000 + i)
	}
	cases := map[string][]Access{
		"single-bank":   mixedTrace(5000, 1, 1),
		"multi-segment": mixedTrace(segmentAccs*2+123, 5, 4),
		"dwell":         dwell,
	}
	for name, accs := range cases {
		t.Run(name, func(t *testing.T) {
			var text bytes.Buffer
			if _, err := WriteTo(&text, FromSlice(name, accs)); err != nil {
				t.Fatal(err)
			}
			fromText, err := ReadBlocks(&text, "fallback")
			if err != nil {
				t.Fatal(err)
			}
			fromBin, err := ReadBlocks(bytes.NewReader(encodeBinary(t, name, accs)), "fallback")
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []*Blocks{fromText, fromBin} {
				if b.Name != name || b.Accs != int64(len(accs)) {
					t.Errorf("loaded %q with %d accesses, want %q with %d", b.Name, b.Accs, name, len(accs))
				}
			}
			blocks := sourceBlocks(t, fromBin)
			if !reflect.DeepEqual(sourceBlocks(t, fromText), blocks) {
				t.Error("text blocks differ from the binary blocks")
			}
			src := newSourceCursor(accs)
			for bi, blk := range blocks {
				src.check(t, bi, blk, nil)
			}
			src.done(t)
		})
	}
}

// TestBlocksDims: a loaded trace sizes the geometry exactly as the struct
// trace does — by the banks and rows its accesses touch, not by a binary
// header that declares more banks.
func TestBlocksDims(t *testing.T) {
	accs := mixedTrace(3000, 3, 7)
	data := encodeBinary(t, "wide", accs)
	hdr := AppendBinaryHeader(nil, "wide", 3, int64(len(accs)))
	if !bytes.HasPrefix(data, hdr) {
		t.Fatal("encoded trace does not start with its version-1 header")
	}
	cases := map[string][]byte{
		"empty-text":   nil,
		"empty-binary": encodeBinary(t, "empty", nil),
		"empty-wide":   append(AppendBinaryHeader(nil, "empty", 4, 0), 0),
		"wide-header":  append(AppendBinaryHeader(nil, "wide", 9, int64(len(accs))), data[len(hdr):]...),
		"text":         []byte("0 5 0\n2 17 100\n2 3 0\n"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			tr, err := ReadAuto(bytes.NewReader(data), name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ReadBlocks(bytes.NewReader(data), name)
			if err != nil {
				t.Fatal(err)
			}
			wb, wr := tr.Dims()
			if gb, gr := b.Dims(); gb != wb || gr != wr {
				t.Errorf("Blocks.Dims = (%d, %d), Trace.Dims = (%d, %d)", gb, gr, wb, wr)
			}
		})
	}
}

// TestLoadBlocksFallbackName: a headerless text file is named after the
// file, as LoadFile names it.
func TestLoadBlocksFallbackName(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.trace")
	if err := os.WriteFile(path, []byte("0 1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBlocks(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "plain.trace" {
		t.Errorf("name = %q, want plain.trace", b.Name)
	}
}
