package sched

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"graphene/internal/faultinject"
)

type ckptCell struct {
	Scheme string  `json:"scheme"`
	Value  float64 `json:"value"`
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("fresh checkpoint has %d entries", c.Len())
	}
	want := ckptCell{Scheme: "Graphene", Value: 0.25}
	if err := c.Record("k1", want); err != nil {
		t.Fatal(err)
	}
	var got ckptCell
	if !c.Lookup("k1", &got) || got != want {
		t.Fatalf("same-session lookup = %+v, %v", got, c.Lookup("k1", &got))
	}
	if c.Lookup("absent", &got) {
		t.Fatal("lookup of an absent key succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the record must survive the restart.
	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 1 {
		t.Fatalf("reloaded %d entries, want 1", c2.Len())
	}
	got = ckptCell{}
	if !c2.Lookup("k1", &got) || got != want {
		t.Fatalf("reloaded lookup = %+v", got)
	}
}

// TestCheckpointToleratesTornTailLine models a run killed mid-append: the
// torn final line is skipped, every intact record loads, and the journal
// stays appendable.
func TestCheckpointToleratesTornTailLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Record("a", ckptCell{Scheme: "x", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Record("b", ckptCell{Scheme: "y", Value: 2}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Simulate the crash: append half a record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"c","val":{"sch`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 2 {
		t.Fatalf("loaded %d entries from a torn journal, want 2", c2.Len())
	}
	var got ckptCell
	if !c2.Lookup("b", &got) || got.Value != 2 {
		t.Fatalf("intact record lost: %+v", got)
	}
	if c2.Lookup("c", &got) {
		t.Fatal("torn record resolved")
	}
	// The journal remains usable after the torn line.
	if err := c2.Record("c", ckptCell{Scheme: "z", Value: 3}); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Len() != 3 {
		t.Fatalf("post-repair journal has %d entries, want 3", c3.Len())
	}
}

func TestCheckpointNilIsInert(t *testing.T) {
	var c *Checkpoint
	if c.Lookup("k", &struct{}{}) {
		t.Error("nil Lookup returned true")
	}
	if err := c.Record("k", 1); err != nil {
		t.Errorf("nil Record = %v", err)
	}
	if c.Len() != 0 {
		t.Errorf("nil Len = %d", c.Len())
	}
	if err := c.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}

func TestCheckpointConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.Record(string(rune('a'+i%26))+string(rune('0'+i/26)), ckptCell{Value: float64(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	c.Close()
	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != n {
		t.Fatalf("reloaded %d entries, want %d", c2.Len(), n)
	}
}

// rewrite replaces the journal's bytes wholesale — the tests' stand-in for
// disk damage and for journals written by older code.
func rewrite(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointLegacyLinesLoad pins backward compatibility: lines without
// a checksum, as journals written before checksums hold them, load and
// resolve, next to checksummed records appended afterwards.
func TestCheckpointLegacyLinesLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	rewrite(t, path, []byte(`{"key":"old","val":{"scheme":"Graphene","value":0.5}}`+"\n"+
		`{"key":"older","val":{"scheme":"PARA","value":2}}`+"\n"))
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Record("new", ckptCell{Scheme: "CBT", Value: 3}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for key, want := range map[string]ckptCell{
		"old":   {Scheme: "Graphene", Value: 0.5},
		"older": {Scheme: "PARA", Value: 2},
		"new":   {Scheme: "CBT", Value: 3},
	} {
		var got ckptCell
		if ok, err := c2.Get(key, &got); !ok || err != nil || got != want {
			t.Errorf("%s: Get = %+v, %v, %v; want %+v", key, got, ok, err, want)
		}
	}
}

// TestCheckpointChecksumDetectsFlip flips a byte that keeps the line valid
// JSON: the record must come back corrupt, loudly from Get and as absent
// from Lookup (a sweep recomputes it), both when the flip is on disk at
// open and when it lands under a live index.
func TestCheckpointChecksumDetectsFlip(t *testing.T) {
	for _, whenOpen := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "flip.ckpt")
		c, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Record("a", ckptCell{Scheme: "x", Value: 1}); err != nil {
			t.Fatal(err)
		}
		if err := c.Record("b", ckptCell{Scheme: "y", Value: 0.25}); err != nil {
			t.Fatal(err)
		}
		flip := func() {
			data := readFile(t, path)
			i := bytes.Index(data, []byte("0.25"))
			if i < 0 {
				t.Fatal("value not found in journal")
			}
			data[i+2] = '3' // 0.25 -> 0.35: still a number, still JSON
			rewrite(t, path, data)
		}
		if whenOpen {
			c.Close()
			flip()
			if c, err = OpenCheckpoint(path); err != nil {
				t.Fatal(err)
			}
		} else {
			flip()
		}
		var got ckptCell
		if ok, err := c.Get("b", &got); !ok || !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("open=%v: Get(flipped) = %v, %v; want present and ErrCorruptRecord", whenOpen, ok, err)
		}
		if c.Lookup("b", &got) {
			t.Errorf("open=%v: Lookup resolved a flipped record: %+v", whenOpen, got)
		}
		if !c.Lookup("a", &got) || got.Value != 1 {
			t.Errorf("open=%v: intact neighbour lost: %+v", whenOpen, got)
		}
		// Re-recording the key (a sweep recomputing the cell) heals it.
		if err := c.Record("b", ckptCell{Scheme: "y", Value: 0.25}); err != nil {
			t.Fatal(err)
		}
		if !c.Lookup("b", &got) || got.Value != 0.25 {
			t.Errorf("open=%v: re-recorded key does not resolve: %+v", whenOpen, got)
		}
		c.Close()
	}
}

// TestCheckpointDeleteAndCompactOnOpen pins tombstones and compaction on
// open: deleted and overwritten records survive neither a reopen nor the
// rewrite, which leaves exactly the live lines.
func TestCheckpointDeleteAndCompactOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "del.ckpt")
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "c", "a"} {
		if err := c.Record(k, ckptCell{Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("b", "absent"); err != nil {
		t.Fatal(err)
	}
	if c.Lookup("b", new(ckptCell)) || c.Len() != 2 {
		t.Fatalf("after delete: Len = %d, b resolvable = %v", c.Len(), c.Lookup("b", new(ckptCell)))
	}
	st := c.Stats()
	if st.FileBytes <= st.LiveBytes {
		t.Fatalf("stats %+v: overwrite and delete left no dead bytes", st)
	}
	c.Close()

	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2 := c2.Stats()
	if st2.Compactions != 1 || st2.FileBytes != st.LiveBytes || st2.LiveBytes != st.LiveBytes {
		t.Fatalf("reopen stats %+v, want one compaction down to %d live bytes", st2, st.LiveBytes)
	}
	if size := int64(len(readFile(t, path))); size != st.LiveBytes {
		t.Fatalf("compacted file is %d bytes, want %d", size, st.LiveBytes)
	}
	var got ckptCell
	if !c2.Lookup("a", &got) || got.Value != 3 {
		t.Errorf("a = %+v, want the overwrite (3)", got)
	}
	if !c2.Lookup("c", &got) || got.Value != 2 {
		t.Errorf("c = %+v, want 2", got)
	}
	if c2.Lookup("b", &got) {
		t.Error("deleted key b came back after reopen")
	}
}

// TestCheckpointBackgroundCompaction drives dead bytes past the floor
// while recorders keep appending, so compactions run concurrently with
// Record, Delete and Lookup. At quiescence the file holds at most
// max(live, floor) dead bytes, and a reopen sees every live value.
func TestCheckpointBackgroundCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bg.ckpt")
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	c.floor = 4 << 10
	pad := strings.Repeat("p", 512)
	var wg sync.WaitGroup
	const workers, rounds = 4, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("w%d/%d", w, i)
				if err := c.Record(k, ckptCell{Scheme: pad, Value: float64(i)}); err != nil {
					t.Error(err)
					return
				}
				if i%4 != 0 { // keep every fourth record, drop the rest
					if err := c.Delete(k); err != nil {
						t.Error(err)
						return
					}
				}
				var got ckptCell
				if k0 := fmt.Sprintf("w%d/0", w); !c.Lookup(k0, &got) || got.Value != 0 {
					t.Errorf("%s unreadable mid-compaction: %+v", k0, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Compactions == 0 || st.CompactErr != nil {
		t.Fatalf("stats %+v: want compactions and no error", st)
	}
	if dead := st.FileBytes - st.LiveBytes; dead > max(st.LiveBytes, c.floor) {
		t.Errorf("stats %+v: %d dead bytes past the ceiling", st, dead)
	}
	if size := int64(len(readFile(t, path))); size != st.FileBytes {
		t.Errorf("file is %d bytes, index accounts for %d", size, st.FileBytes)
	}

	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != workers*rounds/4 {
		t.Fatalf("reloaded %d records, want %d", c2.Len(), workers*rounds/4)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < rounds; i += 4 {
			var got ckptCell
			if k := fmt.Sprintf("w%d/%d", w, i); !c2.Lookup(k, &got) || got.Value != float64(i) {
				t.Fatalf("%s = %+v after compactions", k, got)
			}
		}
	}
}

// TestCheckpointRecordFault pins the checkpoint.record site: the injected
// append fails with ErrInjected and leaves no trace, and the journal keeps
// working.
func TestCheckpointRecordFault(t *testing.T) {
	inj, err := faultinject.New(faultinject.SiteCheckpointRecord + ":error:2")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rec.ckpt")
	c, err := OpenCheckpointWith(path, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Record("a", ckptCell{Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Record("b", ckptCell{Value: 2}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("second Record = %v, want the injected fault", err)
	}
	if err := c.Record("c", ckptCell{Value: 3}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 2 || c2.Lookup("b", new(ckptCell)) || !c2.Lookup("c", new(ckptCell)) {
		t.Fatalf("after a failed append: Len = %d, want a and c only", c2.Len())
	}
}

// TestCheckpointCompactFault pins the checkpoint.compact site, in the
// background and on open: the failed compaction removes its temp file and
// leaves the old journal byte-for-byte in place and fully usable.
func TestCheckpointCompactFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "compact.ckpt")
	inj, err := faultinject.New(faultinject.SiteCheckpointCompact + ":error:1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCheckpointWith(path, inj)
	if err != nil {
		t.Fatal(err)
	}
	c.floor = 1
	if err := c.Record("keep", ckptCell{Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Record("drop", ckptCell{Scheme: strings.Repeat("d", 256), Value: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("drop"); err != nil { // dead > live: compaction starts, and fails
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if !errors.Is(st.CompactErr, faultinject.ErrInjected) || st.Compactions != 0 {
		t.Fatalf("stats %+v: want the injected compaction failure", st)
	}
	before := readFile(t, path)
	if int64(len(before)) != st.FileBytes {
		t.Fatalf("journal is %d bytes, index accounts for %d", len(before), st.FileBytes)
	}
	if _, err := os.Stat(path + compactSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed compaction left its temp file: %v", err)
	}

	// On open: the compaction fails again, the open does not.
	inj2, _ := faultinject.New(faultinject.SiteCheckpointCompact + ":error:1")
	c2, err := OpenCheckpointWith(path, inj2)
	if err != nil {
		t.Fatalf("open with a failing compaction: %v", err)
	}
	if st := c2.Stats(); !errors.Is(st.CompactErr, faultinject.ErrInjected) {
		t.Fatalf("open stats %+v: want the injected compaction failure", st)
	}
	if after := readFile(t, path); !bytes.Equal(after, before) {
		t.Fatal("failed compaction on open changed the journal")
	}
	var got ckptCell
	if !c2.Lookup("keep", &got) || got.Value != 1 || c2.Lookup("drop", &got) {
		t.Fatalf("journal unusable after a failed compaction: keep = %+v", got)
	}
	if err := c2.Record("more", ckptCell{Value: 3}); err != nil {
		t.Fatal(err)
	}
	c2.Close()

	// Without the fault the next open compacts it down to the live lines.
	c3, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if st := c3.Stats(); st.Compactions != 1 || st.FileBytes != st.LiveBytes || st.Records != 2 {
		t.Fatalf("clean reopen stats %+v, want one compaction to 2 live records", st)
	}
}
