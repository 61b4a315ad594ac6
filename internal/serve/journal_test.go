package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphene/internal/faultinject"
	"graphene/internal/sched"
)

// countingReader counts Reads, so a test can prove a client never touched
// its trace source.
type countingReader struct {
	r     *bytes.Reader
	reads atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.r.Read(p)
}

// resumeKeysOf lists the journal's live resume records.
func resumeKeysOf(ck *sched.Checkpoint) []string {
	var out []string
	for _, k := range ck.Keys() {
		if strings.HasPrefix(k, "resume/") {
			out = append(out, k)
		}
	}
	return out
}

// TestFinishedSessionResume pins the finished-session contract: once a
// resumable session's final Report is journaled, its resume records are
// gone, and resuming it — on the same daemon or a restarted one — answers
// with that Report without the client streaming a byte.
func TestFinishedSessionResume(t *testing.T) {
	data := multiSegTrace(t, 200_000)
	path := filepath.Join(t.TempDir(), "finished.ckpt")
	ck, err := sched.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Checkpoint: ck})
	h := Hello{Tenant: "done", ReportEvery: 1, Oracle: true}
	orig, err := runSession(t, s.Addr(), h, data)
	if err != nil {
		t.Fatal(err)
	}
	if keys := resumeKeysOf(ck); len(keys) != 0 || ck.Len() != 1 {
		t.Fatalf("after the final report: %d live records, resume records %v; want only the report", ck.Len(), keys)
	}
	want, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}

	resume := func(addr string) {
		t.Helper()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		src := &countingReader{r: bytes.NewReader(data)}
		var partials int
		c.OnPartial = func(Report) { partials++ }
		rep, err := c.Run(Hello{Tenant: h.Tenant, Resume: &Resume{Session: orig.Session}}, src)
		if err != nil {
			t.Fatalf("resuming a finished session: %v", err)
		}
		if got, _ := json.Marshal(rep); !bytes.Equal(got, want) {
			t.Errorf("finished-session resume answered\n%s\nwant the journaled report\n%s", got, want)
		}
		if n := src.reads.Load(); n != 0 || partials != 0 {
			t.Errorf("finished-session resume streamed: %d source reads, %d partials", n, partials)
		}
	}
	resume(s.Addr())

	// A restarted daemon answers from the reopened journal, and numbers
	// its own sessions past the journaled handle.
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	ck2, err := sched.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	s2 := startServer(t, Config{Checkpoint: ck2})
	fresh, err := runSession(t, s2.Addr(), h, data)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Session <= orig.Session {
		t.Errorf("restarted daemon reused handle %d (journal holds %d)", fresh.Session, orig.Session)
	}
	resume(s2.Addr()) // the new session left the old report alone
}

// TestResumeCorruptRecord flips one base64 character inside a journaled
// resume chunk — the line still parses — and requires the resume to be
// refused loudly, never restored from the damaged bytes.
func TestResumeCorruptRecord(t *testing.T) {
	data := multiSegTrace(t, 200_000)
	cuts := segmentCuts(t, data)
	path := filepath.Join(t.TempDir(), "corrupt.ckpt")
	ck, err := sched.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Checkpoint: ck})
	h := Hello{Tenant: "flipped", ReportEvery: 1}
	handle := interrupt(t, s.Addr(), h, data, cuts[1], 2)
	// Chunk 1 is journaled before partial 2 goes out.
	key := resumeChunkKey(h.Tenant, handle, 1)
	ck.Close()

	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(journal, []byte(`"key":"`+key+`"`))
	val := bytes.Index(journal[at:], []byte(`"data":"`))
	if at < 0 || val < 0 {
		t.Fatalf("chunk %s not found in the journal", key)
	}
	i := at + val + len(`"data":"`) + 40
	if journal[i] == 'A' {
		journal[i] = 'B'
	} else {
		journal[i] = 'A'
	}
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	ck2, err := sched.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	s2 := startServer(t, Config{Checkpoint: ck2})
	_, err = runSession(t, s2.Addr(), Hello{Tenant: h.Tenant, Resume: &Resume{Session: handle}}, data)
	var srvErr *ServerError
	if !errors.As(err, &srvErr) || !strings.Contains(err.Error(), "not resumable: corrupt journal record") {
		t.Fatalf("resume over a flipped chunk: err = %v, want a not-resumable corrupt-record E frame", err)
	}
}

// TestResumeRecordFault pins the journal-before-report invariant under an
// injected append failure: the session fails with an E frame before the
// partial that would have named the unjournaled chunk, and resuming it
// restores exactly the chunks that were journaled.
func TestResumeRecordFault(t *testing.T) {
	data := multiSegTrace(t, 200_000)
	// Hit 1 journals the meta, hit 2 chunk 0, hit 3 (chunk 1) fails.
	inj, err := faultinject.New(faultinject.SiteCheckpointRecord + ":error:3")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sched.OpenCheckpointWith(filepath.Join(t.TempDir(), "fault.ckpt"), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	s := startServer(t, Config{Checkpoint: ck})
	h := Hello{Tenant: "faulted", ReportEvery: 1, Oracle: true}

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var partials []Report
	c.OnPartial = func(rep Report) { partials = append(partials, rep) }
	_, err = c.Run(h, bytes.NewReader(data))
	c.Close()
	var srvErr *ServerError
	if !errors.As(err, &srvErr) || !strings.Contains(err.Error(), "journaling resume chunk") {
		t.Fatalf("injected record failure: err = %v, want an E frame naming the journal", err)
	}
	if len(partials) != 1 || partials[0].Segments != 1 {
		t.Fatalf("partials before the failure = %+v, want exactly the one for chunk 0", partials)
	}

	c2, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var ack Report
	c2.OnPartial = func(rep Report) {
		if rep.Resumed {
			ack = rep
		}
	}
	rep, err := c2.Run(Hello{Tenant: h.Tenant, Resume: &Resume{Session: partials[0].Session}}, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("resume after the injected failure: %v", err)
	}
	if ack.Segments != 1 {
		t.Errorf("resume ack restored %d segments, want the 1 journaled", ack.Segments)
	}
	want := canonical(t, localRun(t, data, h))
	if got := canonical(t, rep.Result); !bytes.Equal(got, want) {
		t.Error("resumed Result differs from local replay")
	}
}

// TestJournalCrashCuts cuts a complete session's journal — meta, chunks,
// final report, tombstones — at every record boundary, mid-record, one
// byte short of each newline, and mid-compaction (a half-written temp
// file beside the intact journal). Every cut must resume exactly or be
// refused loudly; once the meta record is whole, it must resume exactly.
func TestJournalCrashCuts(t *testing.T) {
	data := multiSegTrace(t, 200_000)
	h := Hello{Tenant: "crash", ReportEvery: 1, Oracle: true}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	ck, err := sched.OpenCheckpoint(full)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Checkpoint: ck})
	ref, err := runSession(t, s.Addr(), h, data)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if st := ck.Stats(); st.Compactions != 0 {
		t.Fatalf("journal compacted while being written (%+v); the cuts need every record", st)
	}
	journal, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeReport(t, ref)

	// Line boundaries, and where the meta record's line ends.
	var ends []int
	metaEnd := -1
	for off := 0; off < len(journal); {
		n := bytes.IndexByte(journal[off:], '\n') + 1
		var l struct{ Key string }
		if err := json.Unmarshal(journal[off:off+n], &l); err != nil {
			t.Fatal(err)
		}
		if l.Key == resumeMetaKey(h.Tenant, ref.Session) && metaEnd < 0 {
			metaEnd = off + n
		}
		off += n
		ends = append(ends, off)
	}
	if metaEnd < 0 || len(ends) < 8 {
		t.Fatalf("journal has %d lines (meta end %d): want meta, chunks, report, tombstones", len(ends), metaEnd)
	}
	cuts := []int{0}
	start := 0
	for _, end := range ends {
		cuts = append(cuts, (start+end)/2, end-1, end)
		start = end
	}

	check := func(name string, journal, temp []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "cut.ckpt")
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if temp != nil {
			if err := os.WriteFile(path+".compact", temp, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ck, err := sched.OpenCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		defer ck.Close()
		srv := startServer(t, Config{Checkpoint: ck})
		rep, err := runSession(t, srv.Addr(), Hello{Tenant: h.Tenant, Resume: &Resume{Session: ref.Session}}, data)
		whole := len(journal) >= metaEnd-1 // the meta line's body is complete
		var srvErr *ServerError
		switch {
		case err == nil:
			if got := normalizeReport(t, rep); !bytes.Equal(got, want) {
				t.Errorf("%s: resumed Report differs from the uninterrupted run", name)
			}
		case whole:
			t.Errorf("%s: resume refused with the meta record whole: %v", name, err)
		case !errors.As(err, &srvErr) || !strings.Contains(err.Error(), "unknown session"):
			t.Errorf("%s: refusal is not a loud unknown-session E frame: %v", name, err)
		}
	}
	for _, cut := range cuts {
		check(fmt.Sprintf("cut at %d/%d", cut, len(journal)), journal[:cut], nil)
	}
	for _, cut := range []int{ends[0], ends[len(ends)/2], len(journal)} {
		check(fmt.Sprintf("mid-compaction, temp %d bytes", cut/2), journal, journal[:cut/2])
	}
}

// TestJournalBounded runs N sequential resumable sessions on one daemon.
// The journal must end holding exactly one record per session — its final
// Report — and no resume record, and its file must stay within the
// compaction ceiling, live + max(live, CompactFloor), for N = 8 and 32
// alike, although 32 sessions journal more chunk bytes than the floor.
func TestJournalBounded(t *testing.T) {
	data := multiSegTrace(t, 300_000)
	if n := int64(len(data)) * 32 * 4 / 3; n <= sched.CompactFloor {
		t.Fatalf("32 sessions journal ~%d chunk bytes, not past the %d-byte floor", n, sched.CompactFloor)
	}
	for _, n := range []int{8, 32} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bounded.ckpt")
			ck, err := sched.OpenCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			s := startServer(t, Config{Checkpoint: ck})
			for i := 0; i < n; i++ {
				if _, err := runSession(t, s.Addr(), Hello{Tenant: "bounded", ReportEvery: 1}, data); err != nil {
					t.Fatal(err)
				}
			}
			if err := ck.Close(); err != nil { // waits out a running compaction
				t.Fatal(err)
			}
			st := ck.Stats()
			t.Logf("N=%d: %+v", n, st)
			if st.Records != n || len(resumeKeysOf(ck)) != 0 {
				t.Errorf("N=%d: %d live records, %d resume records; want exactly %d reports and none", n, st.Records, len(resumeKeysOf(ck)), n)
			}
			if st.CompactErr != nil {
				t.Errorf("N=%d: compaction failed: %v", n, st.CompactErr)
			}
			if ceiling := st.LiveBytes + max(st.LiveBytes, sched.CompactFloor); st.FileBytes > ceiling {
				t.Errorf("N=%d: journal is %d bytes, past the ceiling %d (stats %+v)", n, st.FileBytes, ceiling, st)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != st.FileBytes {
				t.Errorf("N=%d: file size %v (%v), index accounts for %d", n, fi.Size(), err, st.FileBytes)
			}
			if n == 32 && st.Compactions == 0 {
				t.Errorf("N=32: no compaction ran (stats %+v)", st)
			}
		})
	}
}

// TestShutdownLogCountsWithoutObs pins the drain log line on a daemon
// with no metrics recorder: the count of sessions being drained is the
// server's own, not a gauge that reads 0 when metrics are off.
func TestShutdownLogCountsWithoutObs(t *testing.T) {
	data := multiSegTrace(t, 200_000)
	cuts := segmentCuts(t, data)
	logs := make(chan string, 16)
	s, err := New(Config{Addr: "127.0.0.1:0", Logf: func(format string, args ...any) {
		logs <- fmt.Sprintf(format, args...)
	}})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()

	// One session mid-stream: its first partial proves it is running.
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload, _ := json.Marshal(Hello{Tenant: "held", ReportEvery: 1})
	if err := writeFrame(c.conn, FrameHello, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(c.conn, FrameData, data[:cuts[0]]); err != nil {
		t.Fatal(err)
	}
	fr := &frameReader{r: c.conn, extend: func() { c.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) }}
	if typ, msg, err := fr.next(nil, MaxFramePayload); err != nil || typ != FrameResult {
		t.Fatalf("first partial: %c %s %v", typ, msg, err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	for line := range logs {
		if strings.Contains(line, "draining") {
			if !strings.Contains(line, "draining 1 active session(s)") {
				t.Errorf("drain log = %q, want 1 active session", line)
			}
			break
		}
	}

	if err := writeFrame(c.conn, FrameData, data[cuts[0]:]); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(c.conn, FrameFin, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := clientVerdict(c); err != nil {
		t.Fatalf("held session verdict: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
