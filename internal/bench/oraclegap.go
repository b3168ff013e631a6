package bench

import (
	"fmt"
	"sort"

	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/fperr"
	"fpint/internal/uarch"
)

// sortedOracleNames returns the oracle report keys in deterministic order.
func sortedOracleNames(m map[string]*core.OracleReport) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// OracleGapRow is one row of the fpibench -oracle-gap report: how much
// §6.1 profit the greedy (advanced) partitioner left on the table versus
// the exact branch-and-bound optimum for one workload, and what the
// difference is worth in measured cycles on one Table 1 machine.
type OracleGapRow struct {
	Workload      string  `json:"workload"`
	Config        string  `json:"config"`
	GreedyProfit  float64 `json:"greedy_profit"`
	OptimalProfit float64 `json:"optimal_profit"`
	GapPct        float64 `json:"gap_pct"` // optimal over greedy, percent
	Degraded      int     `json:"degraded_components"`
	AdvCycles     int64   `json:"adv_cycles"`
	OptCycles     int64   `json:"opt_cycles"`
	CycleDeltaPct float64 `json:"cycle_delta_pct"` // positive = optimal faster
}

// OracleGaps measures the greedy-vs-optimal partition gap for every
// workload on cfg: both schemes are compiled, timed on the detailed model,
// and functionally cross-checked against the IR interpreter; the profit
// totals come from the oracle reports the optimal compile records.
func (r *Runs) OracleGaps(ws []Workload, cfg uarch.Config) ([]OracleGapRow, error) {
	var rows []OracleGapRow
	for i := range ws {
		w := &ws[i]
		adv, err := r.Measure(w, codegen.SchemeAdvanced, cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.s.Compile(w, codegen.SchemeOptimal)
		if err != nil {
			return nil, err
		}
		opt, err := r.measure(w, codegen.SchemeOptimal, res, cfg)
		if err != nil {
			return nil, err
		}
		row := OracleGapRow{
			Workload:  w.Name,
			Config:    cfg.Name,
			AdvCycles: adv.Cycles,
			OptCycles: opt.Cycles,
		}
		for _, name := range sortedOracleNames(res.Oracle) {
			rep := res.Oracle[name]
			row.GreedyProfit += rep.GreedyProfit
			row.OptimalProfit += rep.OptimalProfit
			row.Degraded += rep.Degraded
		}
		if row.GreedyProfit > 0 {
			row.GapPct = 100 * (row.OptimalProfit - row.GreedyProfit) / row.GreedyProfit
		}
		if row.AdvCycles > 0 {
			row.CycleDeltaPct = 100 * (float64(row.AdvCycles) - float64(row.OptCycles)) / float64(row.AdvCycles)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// OracleGapTable renders the rows the way fpibench -oracle-gap prints
// them; the golden test pins this exact text.
func OracleGapTable(rows []OracleGapRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Workload, r.Config,
			fmt.Sprintf("%.0f", r.GreedyProfit),
			fmt.Sprintf("%.0f", r.OptimalProfit),
			fmt.Sprintf("%+5.2f%%", r.GapPct),
			fmt.Sprintf("%d", r.Degraded),
			fmt.Sprintf("%d", r.AdvCycles),
			fmt.Sprintf("%d", r.OptCycles),
			fmt.Sprintf("%+5.2f%%", r.CycleDeltaPct)})
	}
	return FormatTable([]string{"Benchmark", "Config", "Greedy profit", "Optimal profit",
		"Gap", "Degraded", "Adv cycles", "Opt cycles", "Cycle delta"}, out)
}

// GateOracleGaps is the CI gate over an -oracle-gap run: the exact search
// must complete (no degraded components — the default limits are sized for
// every workload) and the optimal profit must dominate the greedy profit
// on every row. A violation is a regression-class error (exit code 5).
func GateOracleGaps(rows []OracleGapRow) error {
	for _, r := range rows {
		if r.Degraded > 0 {
			return fperr.New(fperr.ClassRegression,
				"%s/%s: oracle degraded on %d component(s); the search no longer completes within the default limits",
				r.Workload, r.Config, r.Degraded)
		}
		if r.OptimalProfit+1e-6 < r.GreedyProfit {
			return fperr.New(fperr.ClassRegression,
				"%s/%s: optimal profit %g below greedy %g — dominance invariant broken",
				r.Workload, r.Config, r.OptimalProfit, r.GreedyProfit)
		}
	}
	return nil
}
