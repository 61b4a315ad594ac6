package sched

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"graphene/internal/faultinject"
)

// Checkpoint is an append-only journal of completed work, keyed by an
// opaque string chosen by the caller. A sweep records each cell's result
// as it completes; a restarted sweep opens the same file, looks every
// cell up, and re-runs only the ones missing — reassembling output
// identical to an uninterrupted run. The serving daemon journals session
// reports and resume chunks the same way (DESIGN.md §8, §12).
//
// The on-disk format is JSON lines, one {"key": ..., "val": ..., "crc": ...}
// object per record, where crc is the CRC-32C of the key and the value
// bytes. Each Record is one atomic append under a lock, so the only damage
// a mid-write crash can leave is a truncated final line; loading tolerates
// that (and any other unparsable line) by skipping it — a skipped record
// merely costs recomputation. A line that parses but fails its checksum is
// kept as a known-corrupt key: Lookup treats it as absent, Get reports
// ErrCorruptRecord. Lines without a crc field (written before checksums)
// load unchecked.
//
// Memory holds only an index of key → (offset, length); values are read
// back from the file on every lookup. Delete appends tombstones
// ({"key": ..., "del": true, "crc": ...}); the bytes of deleted and
// overwritten records are dead, and the journal is compacted — live
// records copied to a temp file that is renamed over the journal — when
// it is opened and, in the background, whenever dead bytes exceed both the
// live bytes and CompactFloor. A nil *Checkpoint is valid and inert, so
// callers wire it unconditionally.
type Checkpoint struct {
	path  string
	fault *faultinject.Injector
	floor int64 // CompactFloor; lowered by tests
	wg    sync.WaitGroup

	mu    sync.Mutex
	f     *os.File
	index map[string]span
	size  int64 // file length: where the next append lands
	live  int64 // bytes (newlines included) of the records index names

	compacting  bool
	closed      bool
	retryAt     int64 // after a failed compaction: dead bytes before the next try
	compactions int
	compactErr  error
}

// CompactFloor is the dead-byte count below which an open journal is
// never compacted, however much of it is dead: small journals are not
// worth rewriting.
const CompactFloor = 4 << 20

// ErrCorruptRecord marks a record whose bytes fail their checksum or no
// longer match the index.
var ErrCorruptRecord = errors.New("corrupt journal record")

// span locates one record line (without its newline) in the file.
type span struct {
	off, n int64
	bad    bool // failed its checksum when loaded
}

// compactSuffix names the temp file a compaction writes beside the
// journal. One left behind by a crash is removed on open.
const compactSuffix = ".compact"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum covers the key and the value bytes exactly as journaled
// (nil for a tombstone).
func checksum(key string, val []byte) uint32 {
	crc := crc32.Update(0, castagnoli, []byte(key))
	crc = crc32.Update(crc, castagnoli, []byte{0})
	return crc32.Update(crc, castagnoli, val)
}

// checkpointLine is the journal's wire format.
type checkpointLine struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
	Del bool            `json:"del"`
	CRC *uint32         `json:"crc"`
}

// appendLine encodes one record line (val nil: a tombstone), newline
// included.
func appendLine(dst []byte, key string, val []byte) []byte {
	k, _ := json.Marshal(key) // a string always marshals
	dst = append(dst, `{"key":`...)
	dst = append(dst, k...)
	if val == nil {
		dst = append(dst, `,"del":true`...)
	} else {
		dst = append(dst, `,"val":`...)
		dst = append(dst, val...)
	}
	dst = append(dst, `,"crc":`...)
	dst = strconv.AppendUint(dst, uint64(checksum(key, val)), 10)
	return append(dst, "}\n"...)
}

// parseLine decodes one record line. ok is false for a line that does not
// parse (torn or foreign); bad is true for one that parses but fails its
// checksum.
func parseLine(b []byte) (l checkpointLine, ok, bad bool) {
	if err := json.Unmarshal(b, &l); err != nil || l.Key == "" {
		return l, false, false
	}
	if l.CRC != nil {
		var val []byte
		if !l.Del {
			val = l.Val
		}
		bad = *l.CRC != checksum(l.Key, val)
	}
	return l, true, bad
}

// OpenCheckpoint opens (creating if needed) the journal at path, indexes
// every intact record, and compacts the file if any of it is dead. Torn
// lines — typically one truncated tail line from a killed run — are
// skipped, not fatal.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	return OpenCheckpointWith(path, nil)
}

// OpenCheckpointWith is OpenCheckpoint with the journal's fault points
// (faultinject.SiteCheckpointRecord, SiteCheckpointCompact) armed by
// fault. A failed compaction on open is not fatal: the journal stays as
// it was, and Stats reports the error.
func OpenCheckpointWith(path string, fault *faultinject.Injector) (*Checkpoint, error) {
	// A temp file here is a compaction a crash cut short before its
	// rename: the journal itself is intact, the temp file is debris.
	if err := os.Remove(path + compactSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("sched: checkpoint: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sched: checkpoint: %w", err)
	}
	c := &Checkpoint{path: path, fault: fault, floor: CompactFloor, f: f, index: map[string]span{}}
	if err := c.load(); err != nil {
		f.Close()
		return nil, fmt.Errorf("sched: checkpoint %s: %w", path, err)
	}
	if c.size > c.live {
		if err := c.compact(); err != nil {
			c.compactErr = err
		}
	}
	return c, nil
}

// load indexes the file's records. A killed run can leave the file
// without a trailing newline (a torn final record); load terminates it so
// the next append starts a fresh line instead of gluing onto the debris.
func (c *Checkpoint) load() error {
	br := bufio.NewReaderSize(c.f, 1<<16)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			body := bytes.TrimSuffix(line, []byte("\n"))
			if l, ok, bad := parseLine(body); ok {
				c.put(l.Key, span{off: c.size, n: int64(len(body)), bad: bad}, l.Del && !bad)
			}
			c.size += int64(len(line))
			if line[len(line)-1] != '\n' {
				if _, err := c.f.Write([]byte("\n")); err != nil {
					return err
				}
				c.size++
			}
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// put points key at sp, or removes it for a tombstone, keeping the live
// byte count. c.mu must be held (or c not yet shared).
func (c *Checkpoint) put(key string, sp span, del bool) {
	if old, ok := c.index[key]; ok {
		c.live -= old.n + 1
	}
	if del {
		delete(c.index, key)
		return
	}
	c.index[key] = sp
	c.live += sp.n + 1
}

// Get unmarshals the journaled value for key into v. It reports whether
// the key is journaled; a record that is journaled but fails its checksum,
// no longer matches the index, or does not decode into v comes back as an
// error (ErrCorruptRecord for the first two). Nil-safe (always absent).
func (c *Checkpoint) Get(key string, v any) (bool, error) {
	if c == nil {
		return false, nil
	}
	c.mu.Lock()
	sp, ok := c.index[key]
	var buf []byte
	var err error
	if ok && !sp.bad {
		buf = make([]byte, sp.n)
		_, err = c.f.ReadAt(buf, sp.off)
	}
	c.mu.Unlock()
	switch {
	case !ok:
		return false, nil
	case sp.bad:
		return true, fmt.Errorf("%w: key %q fails its checksum", ErrCorruptRecord, key)
	case err != nil:
		return true, fmt.Errorf("sched: checkpoint: reading %q: %w", key, err)
	}
	l, parsed, bad := parseLine(buf)
	if !parsed || bad || l.Key != key || l.Del {
		return true, fmt.Errorf("%w: key %q does not read back", ErrCorruptRecord, key)
	}
	if err := json.Unmarshal(l.Val, v); err != nil {
		return true, fmt.Errorf("sched: checkpoint: decoding %q: %w", key, err)
	}
	return true, nil
}

// Lookup unmarshals the journaled value for key into v and reports whether
// it was present and intact — a corrupt or undecodable record counts as
// absent, so a sweep recomputes that cell. Nil-safe (always false).
func (c *Checkpoint) Lookup(key string, v any) bool {
	ok, err := c.Get(key, v)
	return ok && err == nil
}

// Record journals one value under key, replacing any earlier record of
// the key. The write is a single append of the full line, serialized
// against concurrent recorders. Nil-safe (no-op).
func (c *Checkpoint) Record(key string, v any) error {
	if c == nil {
		return nil
	}
	if !utf8.ValidString(key) {
		// JSON would rewrite the invalid bytes, so the key could never be
		// found again under its own name.
		return fmt.Errorf("sched: checkpoint: key %q is not valid UTF-8", key)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sched: checkpoint: %w", err)
	}
	line := appendLine(make([]byte, 0, len(key)+len(raw)+64), key, raw)
	c.mu.Lock()
	defer c.mu.Unlock()
	off, err := c.append(line)
	if err != nil {
		return err
	}
	c.put(key, span{off: off, n: int64(len(line) - 1)}, false)
	c.maybeCompact()
	return nil
}

// Delete journals tombstones for every listed key that is present, in one
// append; their records become dead bytes for the next compaction.
// Nil-safe (no-op).
func (c *Checkpoint) Delete(keys ...string) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var buf []byte
	var gone []string
	for _, k := range keys {
		if _, ok := c.index[k]; ok {
			buf = appendLine(buf, k, nil)
			gone = append(gone, k)
		}
	}
	if len(buf) == 0 {
		return nil
	}
	if _, err := c.append(buf); err != nil {
		return err
	}
	for _, k := range gone {
		c.put(k, span{}, true)
	}
	c.maybeCompact()
	return nil
}

// append writes whole lines at the end of the file and returns their
// offset. c.mu must be held.
func (c *Checkpoint) append(b []byte) (int64, error) {
	if err := c.fault.Hit(faultinject.SiteCheckpointRecord); err != nil {
		return 0, fmt.Errorf("sched: checkpoint: %w", err)
	}
	off := c.size
	if n, err := c.f.Write(b); err != nil {
		if n > 0 {
			// Terminate the partial line so the next append starts clean;
			// reloading skips the debris.
			if m, werr := c.f.Write([]byte("\n")); werr == nil {
				n += m
			}
			c.size += int64(n)
		}
		return 0, fmt.Errorf("sched: checkpoint: %w", err)
	}
	c.size += int64(len(b))
	return off, nil
}

// maybeCompact starts a background compaction when dead bytes exceed both
// the live bytes and the floor. The goroutine repeats until they no
// longer do — a Close waits it out — so a quiescent journal always sits
// within the ceiling. c.mu must be held.
func (c *Checkpoint) maybeCompact() {
	if c.compacting || c.closed || !c.needsCompaction() {
		return
	}
	c.compacting = true
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			err := c.compact()
			c.mu.Lock()
			if err != nil {
				// Back off: retry once the dead bytes have doubled, not on
				// every append while, say, the disk is full.
				c.compactErr, c.retryAt = err, 2*(c.size-c.live)
			}
			if err != nil || !c.needsCompaction() {
				c.compacting = false
				c.mu.Unlock()
				return
			}
			c.mu.Unlock()
		}
	}()
}

// needsCompaction reports whether dead bytes call for a compaction. c.mu
// must be held.
func (c *Checkpoint) needsCompaction() bool {
	dead := c.size - c.live
	return dead > c.live && dead >= c.floor && dead >= c.retryAt
}

// compact rewrites the journal to its live records. It copies and fsyncs
// them to a temp file without holding the lock, so Record and Lookup carry
// on against the old file; then, under the lock, it moves over the lines
// appended meanwhile (unsynced, as every Record is), renames the temp file
// over the journal, and remaps the index. Any failure before the rename
// leaves the old file in place.
func (c *Checkpoint) compact() (err error) {
	c.mu.Lock()
	src, end := c.f, c.size
	type entry struct {
		key string
		sp  span
	}
	order := make([]entry, 0, len(c.index))
	for k, sp := range c.index {
		order = append(order, entry{k, sp})
	}
	c.mu.Unlock()
	sort.Slice(order, func(i, j int) bool { return order[i].sp.off < order[j].sp.off })

	tmpPath := c.path + compactSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sched: checkpoint: compact: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			err = fmt.Errorf("sched: checkpoint: compact: %w", err)
		}
	}()
	w := bufio.NewWriterSize(tmp, 1<<20)
	moved := make(map[string]span, len(order))
	var off int64
	var buf []byte
	for _, e := range order {
		if int64(cap(buf)) <= e.sp.n {
			buf = make([]byte, e.sp.n+1)
		}
		buf = buf[:e.sp.n+1]
		if _, err := src.ReadAt(buf[:e.sp.n], e.sp.off); err != nil {
			return err
		}
		buf[e.sp.n] = '\n'
		if _, err := w.Write(buf); err != nil {
			return err
		}
		moved[e.key] = span{off: off, n: e.sp.n, bad: e.sp.bad}
		off += e.sp.n + 1
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}

	if err := c.commit(tmp, tmpPath, src, end, off, moved); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(c.path)); err == nil {
		d.Sync() // make the rename durable; best effort
		d.Close()
	}
	return nil
}

// commit finishes a compaction under the lock: the lines appended to src
// past end follow the copied records (which end at off in tmp), tmp is
// renamed over the journal, and the index is remapped — moved for the
// records the copy took, shifted for the ones appended since.
func (c *Checkpoint) commit(tmp *os.File, tmpPath string, src *os.File, end, off int64, moved map[string]span) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	tail := c.size - end
	if _, err := io.Copy(tmp, io.NewSectionReader(src, end, tail)); err != nil {
		return err
	}
	if err := c.fault.Hit(faultinject.SiteCheckpointCompact); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, c.path); err != nil {
		return err
	}
	for k, sp := range c.index {
		if sp.off >= end {
			sp.off += off - end
		} else {
			sp = moved[k]
		}
		c.index[k] = sp
	}
	src.Close()
	c.f, c.size = tmp, off+tail
	c.compactions++
	c.compactErr, c.retryAt = nil, 0
	return nil
}

// Len returns the number of live records: every key recorded or loaded
// and not since deleted (0 on nil). rhsimd's drain summary quotes it as
// its journaled-report count, which therefore also includes the resume
// records of sessions that have not finished.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Keys returns the live keys, in no particular order (nil on nil).
func (c *Checkpoint) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.index))
	for k := range c.index {
		keys = append(keys, k)
	}
	return keys
}

// CheckpointStats is a snapshot of the journal's size accounting.
type CheckpointStats struct {
	Records     int   // live records (Len)
	FileBytes   int64 // journal file length
	LiveBytes   int64 // bytes of live records; the rest of the file is dead
	Compactions int   // compactions committed since open, the one on open included
	CompactErr  error // the last compaction's failure, nil once one succeeds
}

// Stats returns the journal's current size accounting (zero on nil).
func (c *Checkpoint) Stats() CheckpointStats {
	if c == nil {
		return CheckpointStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CheckpointStats{Records: len(c.index), FileBytes: c.size, LiveBytes: c.live,
		Compactions: c.compactions, CompactErr: c.compactErr}
}

// Close waits for a running compaction, then releases the journal file.
// Nil-safe.
func (c *Checkpoint) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}
