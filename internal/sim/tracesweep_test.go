package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// writeTraceFile records gen into dir in the requested format and returns
// the file path.
func writeTraceFile(t *testing.T, dir, name string, gen trace.Generator, binary bool) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if binary {
		_, err = trace.WriteBinary(f, gen)
	} else {
		_, err = trace.WriteTo(f, gen)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceSweepMixedFormats sweeps one text and one binary trace file
// through the scheme grid and checks the rows line up with the trace
// names, regardless of on-disk format.
func TestTraceSweepMixedFormats(t *testing.T) {
	sc := fastScale()
	dir := t.TempDir()
	rows := sc.Geometry.RowsPerBank
	text := writeTraceFile(t, dir, "attack.trace", workload.S1(0, rows, 10, 20_000), false)
	bin := writeTraceFile(t, dir, "attack.bin", workload.S3(0, rows/2, 20_000), true)

	got, eff, err := TraceSweepOpts(sc, 50_000, []string{text, bin}, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if eff.Geometry != sc.Geometry {
		t.Errorf("traces fit sc but geometry changed: %+v", eff.Geometry)
	}
	if len(got) != 2 {
		t.Fatalf("got %d rows, want 2", len(got))
	}
	for i, wantName := range []string{"S1_d10", "S3"} {
		if !strings.HasPrefix(got[i].Workload, wantName[:2]) {
			t.Errorf("row %d workload = %q", i, got[i].Workload)
		}
		if len(got[i].Cells) == 0 {
			t.Fatalf("row %d has no cells", i)
		}
		for _, c := range got[i].Cells {
			if c.Scheme == "" {
				t.Errorf("row %d has an unlabeled cell", i)
			}
		}
	}

	// Same sweep serially: the pool must not change results.
	serial, _, err := TraceSweepOpts(sc, 50_000, []string{text, bin}, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, serial) {
		t.Errorf("-jobs 4 and -jobs 1 trace sweeps diverge:\n jobs=4: %+v\n jobs=1: %+v", got, serial)
	}
}

// TestLoadTracesGrowsGeometry: a trace touching more rows/banks than the
// Scale's geometry must grow the effective geometry to fit, and duplicate
// trace names must be rejected.
func TestLoadTracesGrowsGeometry(t *testing.T) {
	sc := fastScale()
	dir := t.TempDir()
	big := []trace.Access{
		{Bank: sc.Geometry.Banks() + 2, Row: sc.Geometry.RowsPerBank + 100, Gap: 5},
		{Bank: 0, Row: 3, Gap: 0},
	}
	path := writeTraceFile(t, dir, "big.bin", trace.FromSlice("big", big), true)

	_, eff, err := LoadTraces(sc, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if eff.Geometry.Banks() < sc.Geometry.Banks()+3 {
		t.Errorf("banks = %d, want ≥ %d", eff.Geometry.Banks(), sc.Geometry.Banks()+3)
	}
	if eff.Geometry.RowsPerBank < sc.Geometry.RowsPerBank+101 {
		t.Errorf("rows = %d, want ≥ %d", eff.Geometry.RowsPerBank, sc.Geometry.RowsPerBank+101)
	}

	dup := writeTraceFile(t, dir, "big2.bin", trace.FromSlice("big", big), true)
	if _, _, err := LoadTraces(sc, []string{path, dup}); err == nil || !strings.Contains(err.Error(), "share the name") {
		t.Errorf("duplicate names accepted: %v", err)
	}

	if _, _, err := LoadTraces(sc, nil); err == nil {
		t.Error("empty path list accepted")
	}
}

// TestLoadTracesDefaultGeometry: a zero-geometry Scale falls back to the
// device default before fitting traces.
func TestLoadTracesDefaultGeometry(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceFile(t, dir, "small.bin", trace.FromSlice("small", []trace.Access{{Bank: 0, Row: 1}}), true)
	_, eff, err := LoadTraces(Scale{}, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if eff.Geometry != dram.Default() {
		t.Errorf("geometry = %+v, want dram.Default()", eff.Geometry)
	}
}

// adversarialMix is an 8-bank adversarial trace — S2, many-sided,
// TRRespass and S4 patterns, two banks each, interleaved — long enough to
// span two binary segments.
func adversarialMix(t *testing.T, rows int) []trace.Access {
	t.Helper()
	const banks, per = 8, 12_000
	gens := make([]trace.Generator, banks)
	for b := range gens {
		seed := int64(b + 1)
		base := rows/4 + b*64
		switch b % 4 {
		case 0:
			gens[b] = workload.S2(b, rows, 10, 0.2, per, seed)
		case 1:
			gens[b] = workload.ManySided(b, base, 20, per)
		case 2:
			gens[b] = workload.TRRespassPattern(b, base, 10, 0.5, per, seed)
		case 3:
			gens[b] = workload.S4(b, rows, rows/2, 0.5, per, seed)
		}
	}
	mix, err := workload.Mix("adversarial", 1, gens...)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Collect(mix)
}

// structSweep is the struct route a trace sweep replaced: every cell and
// baseline replays trace.LoadFile(path).Generator() through memctrl.Run,
// traces outer and schemes inner — the serial order the sweep's ordered
// factories reproduce.
func structSweep(t *testing.T, sc Scale, trh int64, paths []string) []Row {
	t.Helper()
	_, eff, err := LoadTraces(sc, paths)
	if err != nil {
		t.Fatal(err)
	}
	schemes, err := CounterSchemes(trh, eff)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for _, path := range paths {
		tr, err := trace.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg := memctrl.Config{Geometry: eff.Geometry, Timing: eff.Timing}
		base, err := memctrl.Run(cfg, tr.Generator())
		if err != nil {
			t.Fatal(err)
		}
		row := Row{Workload: tr.Name}
		for _, spec := range schemes {
			cfg.Factory, cfg.TRH = spec.Factory, trh
			res, err := memctrl.Run(cfg, tr.Generator())
			if err != nil {
				t.Fatal(err)
			}
			row.Cells = append(row.Cells, Cell{
				Scheme: spec.Name, RefreshOverhead: res.RefreshOverhead(), Slowdown: res.SlowdownVs(base),
				VictimRows: res.RowsVictim, NRRCommands: res.NRRCommands, Flips: len(res.Flips),
			})
		}
		rows = append(rows, row)
	}
	return rows
}

// TestTraceSweepMatchesStructRoute pins the trace sweep's shared-block
// route against the struct route it replaced, for one adversarial trace
// stored as text and as binary, at one worker and at four.
func TestTraceSweepMatchesStructRoute(t *testing.T) {
	sc := fastScale()
	const trh = 2_000
	dir := t.TempDir()
	accs := adversarialMix(t, sc.Geometry.RowsPerBank)
	paths := []string{
		writeTraceFile(t, dir, "adv.trace", trace.FromSlice("adv-text", accs), false),
		writeTraceFile(t, dir, "adv.bin", trace.FromSlice("adv-binary", accs), true),
	}
	want := structSweep(t, sc, trh, paths)
	for _, jobs := range []int{1, 4} {
		got, eff, err := TraceSweepOpts(sc, trh, paths, Options{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if eff.Geometry.Banks() != 8 {
			t.Errorf("jobs=%d: geometry has %d banks, want 8", jobs, eff.Geometry.Banks())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("jobs=%d: trace sweep diverges from the struct route:\n got  %+v\n want %+v", jobs, got, want)
		}
	}
}

// TestLoadTracesTruncatedBinary: a binary trace cut short fails LoadTraces
// with the codec's own error, never a silently short trace.
func TestLoadTracesTruncatedBinary(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceFile(t, dir, "adv.bin", trace.FromSlice("adv", adversarialMix(t, 1<<16)), true)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	_, codecErr := trace.LoadFile(path)
	if codecErr == nil {
		t.Fatal("codec accepted a truncated trace")
	}
	_, _, err = LoadTraces(fastScale(), []string{path})
	if err == nil || !strings.Contains(err.Error(), codecErr.Error()) {
		t.Errorf("LoadTraces err = %v, want the codec's %q", err, codecErr)
	}
}

// TestLoadedTraceConcurrentReplays: one loaded trace's shared blocks are
// read-only, so concurrent replays of it — what a parallel sweep does —
// must all produce the same Result (run under -race in make race).
func TestLoadedTraceConcurrentReplays(t *testing.T) {
	sc := fastScale()
	dir := t.TempDir()
	path := writeTraceFile(t, dir, "adv.bin", trace.FromSlice("adv", adversarialMix(t, sc.Geometry.RowsPerBank)), true)
	traces, eff, err := LoadTraces(sc, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	schemes, err := CounterSchemes(50_000, eff)
	if err != nil {
		t.Fatal(err)
	}
	const replays = 4
	results := make([]memctrl.Result, replays)
	errs := make([]error, replays)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = memctrl.RunBlocks(memctrl.Config{
				Geometry: eff.Geometry, Timing: eff.Timing,
				Factory: schemes[0].Factory, TRH: 50_000,
			}, traces[0].Source())
		}()
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("replay %d diverges from replay 0:\n got  %+v\n want %+v", i, results[i], results[0])
		}
	}
}
