package bench

import (
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
// is deterministic end to end.
func (s *Suite) FaultSensitivity(ws []Workload, cfg uarch.Config, fc faultinject.Config) ([]FaultRow, error) {
	schemes := []codegen.Scheme{codegen.SchemeNone, codegen.SchemeBasic, codegen.SchemeAdvanced}
	var rows []FaultRow
	for i := range ws {
		w := &ws[i]
		fr, err := s.frontend(w)
		if err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			res, err := s.Compile(w, scheme)
			if err != nil {
				return nil, err
			}
			_, clean, err := uarch.Run(res.Prog, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, scheme, err)
			}
			m := uarch.NewMachine(cfg)
			m.SetFaultPlan(faultinject.NewPlan(fc))
			m.SetProfiling(true)
			out, st, err := m.Run(res.Prog)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: injected run: %w", w.Name, scheme, err)
			}
			if out.Ret != fr.ref.Ret || out.Output != fr.ref.Output {
				return nil, fmt.Errorf("%s/%s: injected run corrupted architectural output (got %d want %d)",
					w.Name, scheme, out.Ret, fr.ref.Ret)
			}
			if e := st.StallAccountingError(); e != 0 {
				return nil, fmt.Errorf("%s/%s: stall ledger open by %d cycles under injection", w.Name, scheme, e)
			}
			if got := m.Profile().TotalAttributed(); got != st.Cycles {
				return nil, fmt.Errorf("%s/%s: cycle profile attributes %d of %d cycles under injection",
					w.Name, scheme, got, st.Cycles)
			}
			row := FaultRow{
				Workload:       w.Name,
				Scheme:         scheme.String(),
				Config:         cfg.Name,
				Faults:         st.FaultsInjected,
				RecoveryCycles: st.FaultRecoveryCycles,
				CleanCycles:    clean.Cycles,
				FaultCycles:    st.Cycles,
			}
			if clean.Cycles > 0 {
				row.SlowdownPct = 100 * (float64(st.Cycles)/float64(clean.Cycles) - 1)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
