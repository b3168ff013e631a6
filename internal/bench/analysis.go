package bench

import (
	"fmt"

	"fpint/internal/codegen"
	"fpint/internal/uarch"
)

// AnalysisDeltaRow quantifies what the static-analysis address oracle buys
// one workload under one scheme: the static offload share (profile-weighted
// FPa fraction of the partitionable weight) with the analyses off and on,
// the number of unpinned address nodes, and cycle counts on both Table 1
// machine configurations.
type AnalysisDeltaRow struct {
	Workload     string
	Scheme       codegen.Scheme
	StaticOffPct float64 // analysis off
	StaticOnPct  float64 // analysis on
	Unpins       int     // address nodes the oracle unpinned
	Cycles4Off   int64   // 4-way, analysis off
	Cycles4On    int64
	Cycles8Off   int64 // 8-way, analysis off
	Cycles8On    int64
}

// staticOffload is the profile-weighted FPa share of the partitionable
// weight, summed over functions, as a percentage.
func staticOffload(res *codegen.Result) float64 {
	var fpa, total float64
	for _, p := range res.Partitions {
		if p == nil {
			continue
		}
		st := p.ComputeStats()
		fpa += st.FPaWeight
		total += st.TotalWeight
	}
	if total == 0 {
		return 0
	}
	return 100 * fpa / total
}

func countUnpins(res *codegen.Result) int {
	n := 0
	for _, p := range res.Partitions {
		if p == nil || p.Audit == nil {
			continue
		}
		n += len(p.Audit.Unpins)
	}
	return n
}

// AnalysisDelta measures the analysis-off vs analysis-on deltas for each
// workload under the scheme, cross-checking every run's functional result
// against the IR interpreter on both machine configurations. On a
// fast-mode Suite the cycle counts are sampled estimates.
func (s *Suite) AnalysisDelta(ws []Workload, scheme codegen.Scheme) ([]AnalysisDeltaRow, error) {
	var rows []AnalysisDeltaRow
	for i := range ws {
		w := &ws[i]
		row := AnalysisDeltaRow{Workload: w.Name, Scheme: scheme}
		for _, analysis := range []bool{false, true} {
			res, err := s.compile(w, codegen.Options{Scheme: scheme, Analysis: analysis})
			if err != nil {
				return nil, err
			}
			var cycles [2]int64
			for k, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
				m, _, err := s.run(w, scheme, res, cfg, nil)
				if err != nil {
					return nil, fmt.Errorf("analysis=%v: %w", analysis, err)
				}
				cycles[k] = m.Cycles
			}
			if analysis {
				row.StaticOnPct = staticOffload(res)
				row.Unpins = countUnpins(res)
				row.Cycles4On, row.Cycles8On = cycles[0], cycles[1]
			} else {
				row.StaticOffPct = staticOffload(res)
				row.Cycles4Off, row.Cycles8Off = cycles[0], cycles[1]
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
