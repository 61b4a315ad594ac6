package memctrl

import (
	"sync"

	"graphene/internal/trace"
)

// runBuffered replays through the original O(total ACTs)-memory path that
// materialized the whole stream into per-bank slices before replaying
// every ACT through the scalar replayOne. The differential tests keep it
// as the oracle for the columnar route Run and RunBlocks share, and
// bench-replay's scalar-allbanks leg times it.
func runBuffered(cfg Config, gen trace.Generator) (Result, error) {
	return run(cfg, gen.Name(), func(cfg Config, states []*bankState) ([]bankOut, error) {
		return replayBuffered(cfg, gen, states)
	})
}

// replayBuffered materializes the whole activation stream into per-bank
// slices before replaying — O(total ACTs) memory.
func replayBuffered(cfg Config, gen trace.Generator, states []*bankState) ([]bankOut, error) {
	nbanks := len(states)
	perBank := make([][]trace.Access, nbanks)
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		if err := validateAccess(cfg, nbanks, a); err != nil {
			return nil, err
		}
		perBank[a.Bank] = append(perBank[a.Bank], a)
	}

	outs := make([]bankOut, nbanks)
	var wg sync.WaitGroup
	for bi, accs := range perBank {
		if len(accs) == 0 {
			continue
		}
		wg.Add(1)
		go func(bi int, accs []trace.Access) {
			defer wg.Done()
			s, out := states[bi], &outs[bi]
			for _, a := range accs {
				if err := s.replayOne(a, bi, out); err != nil {
					out.err = err
					return
				}
			}
		}(bi, accs)
	}
	wg.Wait()
	return outs, nil
}
