package bench

import (
	"fmt"

	"fpint/internal/codegen"
	"fpint/internal/obs/timeline"
	"fpint/internal/uarch"
)

// PhaseRow is one phase of one workload's timeline under the advanced
// scheme: where the phase sits, its throughput, the FPa occupancy signal,
// and what dominated its stalls.
type PhaseRow struct {
	Workload string
	Config   string
	Phase    int
	Windows  string // "first-last" window range
	Cycles   int64
	IPC      float64
	// FPaOcc is FPa instructions issued per cycle in the phase — the
	// sensor ROADMAP item 3's dynamic scheme selection reads.
	FPaOcc            float64
	OffloadRatio      float64
	DominantStall     string
	DominantStallFrac float64
	// Estimated marks fast-mode rows: the phase table then describes the
	// sampled detailed windows, not the whole run.
	Estimated bool
}

// Phases runs each workload under the advanced scheme with the flight
// recorder armed and returns the segmented phase table (window width in
// cycles; the shared segmenter defaults keep the tables comparable with
// fpisim -timeline and fpistat phasediff). Every run is checked against
// the IR interpreter. In fast mode (SetFast) the rows are flagged
// Estimated.
func (s *Suite) Phases(ws []Workload, cfg uarch.Config, width int64) ([]PhaseRow, error) {
	var rows []PhaseRow
	for i := range ws {
		w := &ws[i]
		res, err := s.Compile(w, codegen.SchemeAdvanced)
		if err != nil {
			return nil, err
		}
		meas, mach, err := s.run(w, codegen.SchemeAdvanced, res, cfg, func(m *uarch.Machine) { m.SetTimelineWidth(width) })
		if err != nil {
			return nil, err
		}
		tl := mach.Timeline(w.Name)
		if tl == nil {
			return nil, fmt.Errorf("%s: no timeline recorded", w.Name)
		}
		if meas.Sampled != nil && !meas.Sampled.Exact {
			tl.Estimated = true
			tl.SampledFraction = meas.Sampled.SampledFraction
		}
		for _, p := range tl.Segment(timeline.DefaultSegConfig()) {
			rows = append(rows, PhaseRow{
				Workload:          w.Name,
				Config:            cfg.Name,
				Phase:             p.ID,
				Windows:           fmt.Sprintf("%d-%d", p.FirstWindow, p.LastWindow),
				Cycles:            p.Cycles,
				IPC:               p.IPC,
				FPaOcc:            p.FPaOcc,
				OffloadRatio:      p.OffloadRatio,
				DominantStall:     p.DominantStall,
				DominantStallFrac: p.DominantStallFrac,
				Estimated:         tl.Estimated,
			})
		}
	}
	return rows, nil
}
