package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/obs"
	"graphene/internal/trace"
)

// maxSpans caps the per-call spans (trace.decode, mitigation.<scheme>) one
// run keeps in memory. Every call still feeds the per-layer aggregates;
// past the cap only the span record is dropped (and counted), so a long
// traced run cannot exhaust memory. Job and stage spans are few and always
// kept.
const maxSpans = 100_000

var epoch = time.Now()

// clock is the span clock: monotonic nanoseconds since process start.
func clock() int64 { return int64(time.Since(epoch)) }

// span is one timed interval recorded by benchmark code around a call into
// a layer. Spans of one job share Job; Parent links a span to its caller.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    int64  `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// schemeAcc aggregates the wrapped Append* calls of one scheme.
type schemeAcc struct {
	calls, acts, nrr, victimRows, selfNS int64
}

func (a *schemeAcc) add(b schemeAcc) {
	a.calls += b.calls
	a.acts += b.acts
	a.nrr += b.nrr
	a.victimRows += b.victimRows
	a.selfNS += b.selfNS
}

// tracer collects the spans and per-layer aggregates of a traced run. Hot
// paths record into per-goroutine buffers (a source or an engine) that are
// merged under the lock once their replay ends.
type tracer struct {
	ids  atomic.Int64
	kept atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64

	decodeNS, decodeActs, decodeBlocks, routeGapNS int64
	schemes                                        map[string]*schemeAcc
	table                                          graphene.TableStats
}

func newTracer() *tracer {
	return &tracer{schemes: map[string]*schemeAcc{}}
}

// newID returns a fresh span id (ids start at 1; 0 means "no parent").
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// reserve reports whether one more per-call span may be stored.
func (t *tracer) reserve() bool { return t.kept.Add(1) <= maxSpans }

// record stores a finished job or stage span.
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// localSpans is a goroutine-owned span buffer merged into the tracer later.
type localSpans struct {
	t       *tracer
	spans   []span
	dropped int64
}

func (l *localSpans) add(s span) {
	if !l.t.reserve() {
		l.dropped++
		return
	}
	s.ID = l.t.newID()
	l.spans = append(l.spans, s)
}

func (t *tracer) mergeLocal(l *localSpans) {
	t.spans = append(t.spans, l.spans...)
	t.dropped += l.dropped
}

// tracedSource wraps a trace.BlockReader for memctrl.RunBlocks. It
// implements both memctrl.BlockSource and memctrl.ColBlockSource, so
// RunBlocks keeps its columnar route, and records a trace.decode span
// around every NextCols call plus the router's gap between calls.
type tracedSource struct {
	br          *trace.BlockReader
	job, parent int64
	local       localSpans
	lastEnd     int64
	decodeNS    int64
	routeGapNS  int64
	acts        int64
	blocks      int64
}

func (s *tracedSource) Name() string { return s.br.Name() }

func (s *tracedSource) Next(buf []trace.Access) (trace.Block, error) {
	t0 := clock()
	b, err := s.br.Next(buf)
	s.note(t0, clock(), int64(len(b.Accs)), err == nil)
	return b, err
}

func (s *tracedSource) NextCols(buf trace.ColBlock) (trace.ColBlock, error) {
	t0 := clock()
	b, err := s.br.NextCols(buf)
	s.note(t0, clock(), int64(len(b.Rows)), err == nil)
	return b, err
}

func (s *tracedSource) note(t0, t1, acts int64, ok bool) {
	if s.lastEnd != 0 {
		s.routeGapNS += t0 - s.lastEnd
	}
	s.lastEnd = t1
	s.decodeNS += t1 - t0
	if ok {
		s.acts += acts
		s.blocks++
	}
	s.local.add(span{Parent: s.parent, Job: s.job, Name: "trace.decode", Start: t0, End: t1})
}

// tracedEngine forwards every Mitigator call to the wrapped engine and
// records a mitigation.<scheme> span around each Append* call. It forwards
// obs.Instrumentable too; ExtraDRAMAccesses is forwarded by tracedExtra
// only when the wrapped engine has it, because memctrl charges counter
// traffic to any engine whose type asserts to that interface.
type tracedEngine struct {
	m     mitigation.Mitigator
	name  string // span name: mitigation.<scheme>
	rows  int
	job   int64
	par   int64
	acc   schemeAcc
	local localSpans
}

var (
	_ mitigation.Mitigator = (*tracedEngine)(nil)
	_ obs.Instrumentable   = (*tracedEngine)(nil)
)

func (e *tracedEngine) Name() string                  { return e.m.Name() }
func (e *tracedEngine) Reset()                        { e.m.Reset() }
func (e *tracedEngine) Cost() mitigation.HardwareCost { return e.m.Cost() }
func (e *tracedEngine) SetRecorder(r *obs.Recorder, bank int) {
	if ir, ok := e.m.(obs.Instrumentable); ok {
		ir.SetRecorder(r, bank)
	}
}

func (e *tracedEngine) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	t0, pre := clock(), len(dst)
	dst = e.m.AppendOnActivate(dst, row, now)
	e.note(t0, clock(), 1, dst[pre:])
	return dst
}

func (e *tracedEngine) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	t0, pre := clock(), len(dst)
	dst, n := e.m.AppendOnActivateBatch(dst, rows, now, dwell)
	e.note(t0, clock(), int64(n), dst[pre:])
	return dst, n
}

func (e *tracedEngine) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	t0, pre := clock(), len(dst)
	dst = e.m.AppendTick(dst, now)
	e.note(t0, clock(), 0, dst[pre:])
	return dst
}

func (e *tracedEngine) note(t0, t1, acts int64, added []mitigation.VictimRefresh) {
	e.acc.calls++
	e.acc.acts += acts
	e.acc.selfNS += t1 - t0
	e.acc.nrr += int64(len(added))
	for _, v := range added {
		e.acc.victimRows += int64(v.RowCount(e.rows))
	}
	e.local.add(span{Parent: e.par, Job: e.job, Name: e.name, Start: t0, End: t1})
}

type tracedExtra struct {
	*tracedEngine
	x interface{ ExtraDRAMAccesses() int64 }
}

func (e tracedExtra) ExtraDRAMAccesses() int64 { return e.x.ExtraDRAMAccesses() }

// tracedReplay is one traced memctrl.RunBlocks call: the source and every
// engine the wrapped factory builds record into the tracer, and the
// aggregates are merged once the replay returns.
type tracedReplay struct {
	t       *tracer
	scheme  string
	src     *tracedSource
	mu      sync.Mutex
	engines []*tracedEngine
}

// runTraced replays data under cfg through RunBlocks with a traced source
// and, when cfg.Factory is set, a traced factory named after scheme.
func (t *tracer) runTraced(job, parent int64, scheme string, cfg memctrl.Config, data []byte) (memctrl.Result, error) {
	br, err := trace.NewBlockReader(bytes.NewReader(data))
	if err != nil {
		return memctrl.Result{}, err
	}
	r := &tracedReplay{t: t, scheme: scheme,
		src: &tracedSource{br: br, job: job, parent: parent, local: localSpans{t: t}}}
	if inner := cfg.Factory; inner != nil {
		rows := cfg.Geometry.RowsPerBank
		cfg.Factory = func() (mitigation.Mitigator, error) {
			m, err := inner()
			if err != nil {
				return nil, err
			}
			e := &tracedEngine{m: m, name: "mitigation." + scheme, rows: rows, job: job, par: parent, local: localSpans{t: t}}
			r.mu.Lock()
			r.engines = append(r.engines, e)
			r.mu.Unlock()
			if x, ok := m.(interface{ ExtraDRAMAccesses() int64 }); ok {
				return tracedExtra{e, x}, nil
			}
			return e, nil
		}
	}
	res, err := memctrl.RunBlocks(cfg, r.src)
	r.merge()
	return res, err
}

func (r *tracedReplay) merge() {
	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	s := r.src
	t.decodeNS += s.decodeNS
	t.routeGapNS += s.routeGapNS
	t.decodeActs += s.acts
	t.decodeBlocks += s.blocks
	t.mergeLocal(&s.local)
	acc := t.schemes[r.scheme]
	if acc == nil && len(r.engines) > 0 {
		acc = &schemeAcc{}
		t.schemes[r.scheme] = acc
	}
	for _, e := range r.engines {
		acc.add(e.acc)
		t.mergeLocal(&e.local)
		if g, ok := e.m.(interface{ Table() *graphene.Table }); ok {
			st := g.Table().Stats()
			t.table.Hits += st.Hits
			t.table.Replacements += st.Replacements
			t.table.Spills += st.Spills
			t.table.Triggers += st.Triggers
		}
	}
}

// stageSpan runs fn inside a top-level span named name, passing fn the
// span's id, and returns fn's error.
func (t *tracer) stageSpan(name string, fn func(id int64) error) error {
	id := t.newID()
	t0 := clock()
	err := fn(id)
	t.record(span{ID: id, Name: name, Start: t0, End: clock()})
	return err
}

// writeSpans writes every kept span as one JSON line to path. It runs once
// every traced replay has returned, so it reads the spans without the lock.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
