// Command rhtrace records workload/attack generators into trace files,
// converts between the text and binary trace formats, and replays trace
// files through the simulator — the glue for exchanging activation
// streams with other tools.
//
// Usage:
//
//	rhtrace -record S3 -o attack.trace -windows 0.1   # generator -> file
//	rhtrace -record mcf -acts 100000 -to binary -o mcf.bin
//	rhtrace -convert attack.trace -o attack.bin        # text <-> binary
//	rhtrace -replay attack.bin -scheme graphene        # file -> simulator
//
// Replay and convert auto-detect the input format by magic; -to picks the
// output format ("auto" converts to the opposite format and records text).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/sim"
	"graphene/internal/stats"
	"graphene/internal/trace"
)

func main() {
	var (
		record  = flag.String("record", "", "workload/attack name to record (see rhsim -workload)")
		convert = flag.String("convert", "", "trace file to convert (format auto-detected)")
		out     = flag.String("o", "", "output trace file for -record/-convert (default stdout)")
		to      = flag.String("to", "auto", "output format: text, binary, or auto (convert: opposite of input; record: text)")
		replay  = flag.String("replay", "", "trace file to replay (text or binary)")
		scheme  = flag.String("scheme", "graphene", "scheme for -replay (see rhsim -scheme)")
		trh     = flag.Int64("trh", 50000, "Row Hammer threshold")
		acts    = flag.Int64("acts", 200_000, "trace length for profile workloads")
		windows = flag.Float64("windows", 0.1, "refresh windows for attack patterns")
		banks   = flag.Int("banks", 0, "banks in the replay geometry (0 = auto: max bank in trace + 1)")
		seed    = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	modes := 0
	for _, m := range []string{*record, *convert, *replay} {
		if m != "" {
			modes++
		}
	}
	switch {
	case modes > 1:
		fmt.Fprintln(os.Stderr, "rhtrace: -record, -convert, and -replay are mutually exclusive")
		os.Exit(2)
	case *record != "":
		if err := doRecord(*record, *out, *to, *trh, *acts, *windows, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "rhtrace:", err)
			os.Exit(1)
		}
	case *convert != "":
		if err := doConvert(*convert, *out, *to); err != nil {
			fmt.Fprintln(os.Stderr, "rhtrace:", err)
			os.Exit(1)
		}
	case *replay != "":
		if err := doReplay(*replay, *scheme, *trh, *banks, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "rhtrace:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writeTrace serializes gen to w in the requested format ("text" or
// "binary") and returns the access count.
func writeTrace(w io.Writer, gen trace.Generator, format string) (int64, error) {
	switch format {
	case "text":
		return trace.WriteTo(w, gen)
	case "binary":
		return trace.WriteBinary(w, gen)
	default:
		return 0, fmt.Errorf("unknown output format %q (want text, binary, or auto)", format)
	}
}

// openOut resolves the -o flag: stdout when empty, else a created file.
func openOut(out string) (io.Writer, func() error, error) {
	if out == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func doRecord(name, out, format string, trh, acts int64, windows float64, seed int64) error {
	if format == "auto" {
		format = "text"
	}
	sc := sim.Quick()
	sc.Seed = seed
	sc.WorkloadAccesses = acts
	sc.AdversarialWindows = windows
	gen, _, err := sim.BuildWorkload(name, sc, trh)
	if err != nil {
		return err
	}
	w, done, err := openOut(out)
	if err != nil {
		return err
	}
	n, err := writeTrace(w, gen, format)
	if err != nil {
		done()
		return err
	}
	if err := done(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rhtrace: recorded %d accesses of %s (%s)\n", n, name, format)
	return nil
}

// doConvert reads a trace in either format and rewrites it in the
// requested one. "auto" flips the format: a text input becomes binary and
// vice versa, so `rhtrace -convert f -o g` round-trips without flags.
func doConvert(in, out, to string) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	src := bufio.NewReader(f)
	from := "text"
	if trace.IsBinary(src) {
		from = "binary"
	}
	tr, err := trace.ReadAuto(src, in)
	if err != nil {
		return err
	}
	if to == "auto" {
		to = "text"
		if from == "text" {
			to = "binary"
		}
	}
	w, done, err := openOut(out)
	if err != nil {
		return err
	}
	n, err := writeTrace(w, tr.Generator(), to)
	if err != nil {
		done()
		return err
	}
	if err := done(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rhtrace: converted %s (%d accesses) %s -> %s\n", tr.Name, n, from, to)
	return nil
}

// doReplay runs a trace file through the simulator under one scheme. The
// format is auto-detected: a binary trace streams block-direct into the
// bank-parallel replay path, with the geometry's bank count read straight
// from the header; a text trace is parsed once into columnar blocks
// (trace.ReadBlocks), which size the geometry and take the same RunBlocks
// route.
func doReplay(path, scheme string, trh int64, banks int, seed int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	sc := sim.Quick()
	sc.Seed = seed
	replay := func(banks int, naccs int64, src memctrl.ColBlockSource) error {
		if banks == 0 {
			banks = 1 // empty trace: keep a valid 1-bank geometry
		}
		geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: banks, RowsPerBank: sc.Geometry.RowsPerBank}
		factory, schemeName, err := sim.BuildScheme(scheme, trh, 2, 1, geo.RowsPerBank, sc)
		if err != nil {
			return err
		}
		res, err := memctrl.RunBlocks(memctrl.Config{
			Geometry: geo, Timing: sc.Timing, Factory: factory, TRH: trh,
		}, src)
		if err != nil {
			return err
		}
		fmt.Printf("trace              %s (%d accesses, %d banks)\n", src.Name(), naccs, banks)
		fmt.Printf("scheme             %s\n", schemeName)
		fmt.Printf("victim refreshes   %d commands, %d rows\n", res.NRRCommands, res.RowsVictim)
		fmt.Printf("refresh overhead   %s\n", stats.Pct(res.RefreshOverhead()))
		fmt.Printf("bit flips          %d\n", len(res.Flips))
		if len(res.Flips) > 0 {
			return fmt.Errorf("protection failed with %d bit flips", len(res.Flips))
		}
		return nil
	}

	src := bufio.NewReader(f)
	br, err := trace.NewBlockReader(src)
	switch {
	case err == nil:
		if banks == 0 {
			banks = br.Banks()
		}
		return replay(banks, br.Total(), br)
	case errors.Is(err, trace.ErrNotBinary):
		tr, err := trace.ReadBlocks(src, path)
		if err != nil {
			return err
		}
		if banks == 0 {
			banks, _ = tr.Dims()
		}
		return replay(banks, tr.Accs, tr.Source())
	default:
		return err
	}
}
