package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/serve"
	"graphene/internal/sim"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// serveActs is the mix-high part of each session's trace.
const serveActs = 900_000

// inprocReps is how many in-process replays time a class's serving floor.
const inprocReps = 3

// sessionClass is one kind of rhsimd session; each client serves one.
type sessionClass struct {
	name  string
	hello serve.Hello
	enc   encoded
	cfg   memctrl.Config // the replay config the daemon derives from hello

	ref, base memctrl.Result
	refJSON   []byte
	inprocMS  float64 // median in-process RunBlocks of the same bytes and config
}

// serveJournal is the rhsimd path: an in-process serve.Server on loopback
// with a sched.Checkpoint journal, two clients running sessions back to
// back — one resumable class (partial reports, journaled resume chunks)
// and one RowPress class (DDR5, dwell column, final report only).
type serveJournal struct {
	o       options
	acts    int64
	classes []*sessionClass

	dir     string
	journal string
	ck      *sched.Checkpoint
	srv     *serve.Server
	served  chan error
	rec     *obs.Recorder

	actsServed, actsJournaled atomic.Int64
}

func (s *serveJournal) setup() error {
	prof, err := workload.ProfileByName("mix-high")
	if err != nil {
		return err
	}
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 8, RowsPerBank: benchRows}
	ddr4, ddr5 := dram.DDR4Profile(), dram.DDR5Profile()

	resumable, err := prof.Generate(geo, ddr4.Timing, s.acts, s.o.seed)
	if err != nil {
		return err
	}
	mix, err := prof.Generate(geo, ddr5.Timing, s.acts, s.o.seed+1)
	if err != nil {
		return err
	}
	dwell := sim.RowPressDwell * ddr5.Timing.NRAS()
	press := workload.RowPressDouble(geo.BanksPerRank, benchRows/2, dwell, s.acts/8)
	rowpress, err := workload.Mix("rowpress", s.o.seed, mix, press)
	if err != nil {
		return err
	}
	s.classes = []*sessionClass{
		{name: "resumable", hello: serve.Hello{Tenant: "resumable", Scheme: "graphene", ReportEvery: 2}},
		{name: "rowpress", hello: serve.Hello{Tenant: "rowpress", Scheme: "graphene", Profile: "ddr5", Rowpress: true}},
	}
	for i, gen := range []trace.Generator{resumable, rowpress} {
		c := s.classes[i]
		if c.enc, err = encode(gen); err != nil {
			return err
		}
		br, err := trace.NewBlockReader(bytes.NewReader(c.enc.data))
		if err != nil {
			return err
		}
		p := ddr4
		if c.hello.Profile == "ddr5" {
			p = ddr5
		}
		c.cfg = memctrl.Config{
			Geometry: dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: br.Banks(), RowsPerBank: benchRows},
			Timing:   p.Timing,
		}
	}

	if s.dir, err = scratchDir(s.o.out, "serve"); err != nil {
		return err
	}
	s.journal = filepath.Join(s.dir, "journal")
	if s.ck, err = sched.OpenCheckpoint(s.journal); err != nil {
		return err
	}
	if s.o.trace {
		s.rec = obs.New()
	}
	s.srv, err = serve.New(serve.Config{Addr: "127.0.0.1:0", Checkpoint: s.ck, Obs: s.rec})
	if err != nil {
		return err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve() }()
	s.actsServed.Store(0)
	s.actsJournaled.Store(0)
	return nil
}

// protected is class c's replay config under Graphene, as the daemon
// builds it from the hello.
func (c *sessionClass) protected() memctrl.Config {
	cfg := c.cfg
	cfg.Factory = grapheneFactory(cfg.Timing, c.hello.Rowpress)()
	return cfg
}

// reference replays each class's bytes in process through RunBlocks with
// the session's hello config — the route without the wire, the shard pool
// and the journal — timing the replays for the serving overhead.
func (s *serveJournal) reference() error {
	for _, c := range s.classes {
		var ms []float64
		for i := 0; i < inprocReps; i++ {
			br, err := trace.NewBlockReader(bytes.NewReader(c.enc.data))
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := memctrl.RunBlocks(c.protected(), br)
			if err != nil {
				return err
			}
			ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
			if i == 0 {
				c.ref = res
			} else if err := sameResult(res, c.ref); err != nil {
				return err
			}
		}
		c.inprocMS = median(ms)
		br, err := trace.NewBlockReader(bytes.NewReader(c.enc.data))
		if err != nil {
			return err
		}
		if c.base, err = memctrl.RunBlocks(c.cfg, br); err != nil {
			return err
		}
		if c.refJSON, err = json.Marshal(c.ref); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveJournal) corrupt() {
	for _, c := range s.classes {
		c.ref.RowsAuto++
		c.refJSON, _ = json.Marshal(c.ref)
	}
}

func (s *serveJournal) clients() int { return len(serveClasses) }

// job runs one session of client env.client's class, from Dial to the
// final Report, and checks the Report's Result against the reference.
func (s *serveJournal) job(env jobEnv) (jobOut, error) {
	c := s.classes[env.client]
	out := jobOut{class: c.name, firstPartialMS: -1}
	t0 := time.Now()
	cl, err := serve.Dial(s.srv.Addr())
	if err != nil {
		return out, err
	}
	defer cl.Close()
	var first atomic.Int64
	cl.OnPartial = func(serve.Report) { first.CompareAndSwap(0, int64(time.Since(t0))) }
	rep, err := cl.Run(c.hello, bytes.NewReader(c.enc.data))
	if err != nil {
		return out, err
	}
	out.acts = rep.Result.ACTs
	out.serverMS = float64(rep.WallUS) / 1e3
	if f := first.Load(); f > 0 {
		out.firstPartialMS = float64(f) / float64(time.Millisecond)
	}
	s.actsServed.Add(out.acts)
	if c.hello.ReportEvery > 0 {
		s.actsJournaled.Add(out.acts)
	}
	got, err := json.Marshal(rep.Result)
	if err != nil {
		return out, err
	}
	if !bytes.Equal(got, c.refJSON) {
		return out, fmt.Errorf("%s session result differs from the in-process reference: %d ACTs, %d NRRs; want %d, %d",
			c.name, rep.Result.ACTs, rep.Result.NRRCommands, c.ref.ACTs, c.ref.NRRCommands)
	}
	if rep.Flips > 0 {
		return out, fmt.Errorf("%s session: graphene let %d bits flip", c.name, rep.Flips)
	}
	return out, nil
}

// sim covers both classes' Graphene replays. The oracle is off, as in
// production, so no flip can be seen and no disturbance is measured.
func (s *serveJournal) sim() simOut {
	var refs, bases []memctrl.Result
	for _, c := range s.classes {
		refs = append(refs, c.ref)
		bases = append(bases, c.base)
	}
	return grapheneSim(refs, bases)
}

func (s *serveJournal) stages() ([]stageInput, error) {
	var ins []stageInput
	for _, c := range s.classes {
		ins = append(ins, stageInput{
			data: c.enc.data, cfg: c.cfg,
			factories: map[string]func() mitigation.Factory{"graphene": grapheneFactory(c.cfg.Timing, c.hello.Rowpress)},
		})
	}
	return ins, nil
}

func (s *serveJournal) layers(m map[string]float64, un *phase) {
	var encs []encoded
	for _, c := range s.classes {
		encs = append(encs, c.enc)
		var session, server, queue []float64
		for _, j := range un.jobs {
			if j.out.class != c.name {
				continue
			}
			session = append(session, j.ms())
			server = append(server, j.out.serverMS)
			queue = append(queue, j.ms()-j.out.serverMS)
		}
		m["serve.session_ms_p50."+c.name] = median(session)
		m["serve.server_ms_p50."+c.name] = median(server)
		m["serve.queue_ms_p50."+c.name] = median(queue)
		m["serve.overhead_ns_per_act."+c.name] = (median(session) - c.inprocMS) * 1e6 / float64(c.enc.acts)
	}
	encodeLayers(m, encs...)
	var first []float64
	for _, j := range un.jobs {
		if j.out.firstPartialMS >= 0 {
			first = append(first, j.out.firstPartialMS)
		}
	}
	m["serve.first_partial_ms_p50"] = median(first)
	if served := s.actsServed.Load(); served > 0 {
		m["serve.wire_bytes_per_act"] = float64(s.rec.Counter("serve_bytes_in_total").Value()) / float64(served)
	}
	if st, err := os.Stat(s.journal); err == nil {
		m["sched.journal_mb_end"] = float64(st.Size()) / (1 << 20)
		if j := s.actsJournaled.Load(); j > 0 {
			m["sched.journal_bytes_per_act"] = float64(st.Size()) / float64(j)
		}
	}
}

// close drains the daemon, closes the journal and removes its directory.
func (s *serveJournal) close() error {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := s.srv.Shutdown(ctx)
		cancel()
		if serr := <-s.served; err == nil {
			err = serr
		}
		s.srv = nil
		if err != nil {
			return err
		}
	}
	if s.ck != nil {
		if err := s.ck.Close(); err != nil {
			return err
		}
		s.ck = nil
	}
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil {
			return err
		}
		s.dir = ""
	}
	return nil
}
