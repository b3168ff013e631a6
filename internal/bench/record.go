package bench

import (
	"fmt"
	"reflect"

	"fpint/internal/codegen"
	"fpint/internal/obs/hostmetrics"
	"fpint/internal/obs/runstore"
	"fpint/internal/uarch"
)

// Run-record production: the bridge between the measurement machinery in
// this package and the append-only store in internal/obs/runstore. Record
// is what `fpistat record` (and the CI record-and-gate stage) drives for
// every program, named workload and source file alike.

// Record measures the workload under scheme, with the alias/value-range
// analyses on or off, on cfg `repeat` times (at least once), through the
// same run as Measure. It returns the guest block, which must be identical
// across repeats (the simulator is deterministic, so a difference means
// state leaked between runs), and a host block with one cost sample per
// repeat, the raw material for the gate's min/median noise estimators. On a
// fast-mode Suite the guest block holds sampled estimates; records built
// from it must be stamped runstore.TimingFast so the gate never compares
// them against detailed records.
func (s *Suite) Record(w *Workload, scheme codegen.Scheme, analysis bool, cfg uarch.Config, repeat int) (runstore.Guest, *runstore.Host, error) {
	res, err := s.compile(w, codegen.Options{Scheme: scheme, Analysis: analysis})
	if err != nil {
		return runstore.Guest{}, nil, err
	}
	var guest runstore.Guest
	host := &runstore.Host{Env: hostmetrics.CurrentEnv()}
	for i := 0; i < max(repeat, 1); i++ {
		m, _, err := s.run(w, scheme, res, cfg, nil)
		if err != nil {
			return runstore.Guest{}, nil, err
		}
		g := GuestFromMeasurement(m)
		if i == 0 {
			guest = g
		} else if !reflect.DeepEqual(g, guest) {
			return runstore.Guest{}, nil, fmt.Errorf("%s/%s/%s: nondeterministic run: repeat %d's guest block differs from the first's (cycles %d vs %d)",
				w.Name, scheme, cfg.Name, i+1, g.Cycles, guest.Cycles)
		}
		host.Samples = append(host.Samples, *m.Host)
	}
	return guest, host, nil
}

// GuestFromMeasurement converts a suite measurement into a record guest
// block.
func GuestFromMeasurement(m *Measurement) runstore.Guest {
	g := runstore.Guest{
		Ret:         m.Ret,
		DynInstrs:   m.DynInstrs,
		Cycles:      m.Cycles,
		IssueActive: m.IssueActiveCycles,
		OffloadPct:  100 * m.OffloadFrac,
		Copies:      m.Copies,
		Dups:        m.Dups,
		Loads:       m.Loads,
		Stores:      m.Stores,
		Stalls:      make(map[string]int64, len(m.Stalls)),
	}
	for k, v := range m.Stalls {
		g.Stalls[k] = v
	}
	return g
}
