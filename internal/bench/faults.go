package bench

import (
	"errors"
	"fmt"

	"fpint/internal/codegen"
	"fpint/internal/faultinject"
	"fpint/internal/uarch"
)

// FaultRow is one cell of the per-scheme fault-sensitivity sweep: a
// workload run under seeded transient-fault injection, compared against
// its fault-free run on the same machine configuration. SlowdownPct is the
// cycle cost of detection and recovery; the architectural output is
// checked to be unchanged, so faults never show up as wrong results.
type FaultRow struct {
	Workload       string  `json:"workload"`
	Scheme         string  `json:"scheme"`
	Config         string  `json:"config"`
	Faults         int64   `json:"faults"`
	RecoveryCycles int64   `json:"recoveryCycles"`
	CleanCycles    int64   `json:"cleanCycles"`
	FaultCycles    int64   `json:"faultCycles"`
	SlowdownPct    float64 `json:"slowdownPct"`
}

// FaultSensitivity measures every workload under the none/basic/advanced
// schemes on cfg with the given fault plan configuration, asserting on the
// way that each injected run still produces the reference output and a
// closed stall ledger. The same seed is used for every cell, so the sweep
// is deterministic end to end. Fault injection needs the detailed model,
// so a fast-mode Suite is refused.
func (s *Suite) FaultSensitivity(ws []Workload, cfg uarch.Config, fc faultinject.Config) ([]FaultRow, error) {
	if s.fast != nil {
		return nil, errors.New("fault sensitivity needs the detailed model; the suite is in fast mode")
	}
	schemes := []codegen.Scheme{codegen.SchemeNone, codegen.SchemeBasic, codegen.SchemeAdvanced}
	var rows []FaultRow
	for i := range ws {
		w := &ws[i]
		for _, scheme := range schemes {
			res, err := s.Compile(w, scheme)
			if err != nil {
				return nil, err
			}
			clean, _, err := s.run(w, scheme, res, cfg, nil)
			if err != nil {
				return nil, err
			}
			inj, mach, err := s.run(w, scheme, res, cfg, func(m *uarch.Machine) {
				m.SetFaultPlan(faultinject.NewPlan(fc))
				m.SetProfiling(true)
			})
			if err != nil {
				return nil, fmt.Errorf("injected run: %w", err)
			}
			if g := GuestFromMeasurement(inj); !g.LedgerClosed() {
				return nil, fmt.Errorf("%s/%s: stall ledger open by %d cycles under injection",
					w.Name, scheme, g.Cycles-g.IssueActive-g.StallTotal())
			}
			if got := mach.Profile().TotalAttributed(); got != inj.Cycles {
				return nil, fmt.Errorf("%s/%s: cycle profile attributes %d of %d cycles under injection",
					w.Name, scheme, got, inj.Cycles)
			}
			row := FaultRow{
				Workload:       w.Name,
				Scheme:         scheme.String(),
				Config:         cfg.Name,
				Faults:         inj.Faults,
				RecoveryCycles: inj.FaultRecoveryCycles,
				CleanCycles:    clean.Cycles,
				FaultCycles:    inj.Cycles,
			}
			if clean.Cycles > 0 {
				row.SlowdownPct = 100 * (float64(inj.Cycles)/float64(clean.Cycles) - 1)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
