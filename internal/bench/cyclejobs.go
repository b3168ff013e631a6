package bench

import (
	"fpint/internal/codegen"
	"fpint/internal/uarch"
)

// The cycle-bearing job set: every (workload, scheme, machine) run whose
// cycle count Figures 9/10 and the §7.5 FP programs report. The run store
// pins one record per job in BASELINE_RUNS.jsonl, and `fpistat record
// -suite` re-measures exactly these jobs for `fpistat gate`.

// figureSchemes are the schemes FigureSpeedups measures per workload, in
// SpeedupRow column order.
var figureSchemes = [3]codegen.Scheme{codegen.SchemeNone, codegen.SchemeBasic, codegen.SchemeAdvanced}

// CycleJob is one timed run behind a reported cycle count.
type CycleJob struct {
	Workload Workload
	Scheme   codegen.Scheme
	Config   uarch.Config
}

// CycleJobs returns the Figure 9 (4-way) and Figure 10 (8-way) jobs for
// every integer workload, then the §7.5 jobs for every FP workload on the
// 4-way machine, each under none, basic and advanced.
func CycleJobs() []CycleJob {
	var jobs []CycleJob
	add := func(ws []Workload, cfg uarch.Config) {
		for _, w := range ws {
			for _, sch := range figureSchemes {
				jobs = append(jobs, CycleJob{Workload: w, Scheme: sch, Config: cfg})
			}
		}
	}
	add(IntWorkloads(), uarch.Config4Way())
	add(IntWorkloads(), uarch.Config8Way())
	add(FpWorkloads(), uarch.Config4Way())
	return jobs
}

// FPProgramRow is one §7.5 row: the advanced scheme applied to a
// floating-point program.
type FPProgramRow struct {
	Workload   string  `json:"workload"`
	OffloadPct float64 `json:"offloadPct"`
	SpeedupPct float64 `json:"speedupPct"`
	BaseCycles int64   `json:"baseCycles"`
	AdvCycles  int64   `json:"advCycles"`
}

// FPProgramRows computes the §7.5 rows: advanced-scheme offload and
// speedup for the FP programs on the 4-way machine. The offload is the
// functional count of the timed advanced run, which the speedup row has
// already put in the table.
func (r *Runs) FPProgramRows() ([]FPProgramRow, error) {
	ws, cfg := FpWorkloads(), uarch.Config4Way()
	speeds, err := r.FigureSpeedups(ws, cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]FPProgramRow, len(speeds))
	for i, sp := range speeds {
		adv, err := r.Measure(&ws[i], codegen.SchemeAdvanced, cfg)
		if err != nil {
			return nil, err
		}
		rows[i] = FPProgramRow{
			Workload:   sp.Workload,
			OffloadPct: 100 * adv.OffloadFrac,
			SpeedupPct: sp.AdvancedPct,
			BaseCycles: sp.BaseCycles,
			AdvCycles:  sp.AdvCycles,
		}
	}
	return rows, nil
}
