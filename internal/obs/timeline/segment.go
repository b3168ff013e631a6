package timeline

// Online phase segmentation: change-point detection over the per-window
// feature vectors (see Timeline.Features). The algorithm keeps a running
// mean of the current phase's features; a window whose L1 distance from
// that mean exceeds segThreshold starts a candidate change, and segConfirm
// consecutive divergent windows confirm it — a single outlier window
// (e.g. a cold-start or fault-recovery spike) is absorbed rather than
// split into its own phase. Phases always partition the window sequence,
// so phase statistics computed from exact window sums inherit the
// timeline's closure.

// The segmenter's parameters, shared by every surface that prints phases
// (fpisim, fpibench, fpistat phasediff), so their phase tables line up.
const (
	// segMinWindows is the minimum phase length: a phase absorbs at least
	// this many windows before a change can be called.
	segMinWindows = 4
	// segThreshold is the L1 feature distance beyond which a window counts
	// as divergent from the current phase's running mean.
	segThreshold = 0.35
	// segConfirm is how many consecutive divergent windows confirm a
	// change point.
	segConfirm = 2
)

// Phase is one segment of the run: a contiguous window range with
// aggregate statistics computed from exact window sums.
type Phase struct {
	ID          int `json:"id"`
	FirstWindow int `json:"first_window"`
	LastWindow  int `json:"last_window"`

	StartCycle   int64 `json:"start_cycle"`
	Cycles       int64 `json:"cycles"`
	Instructions int64 `json:"instructions"`

	IPC float64 `json:"ipc"`
	// FPaOcc is the phase's mean FPa occupancy (FPa instructions issued
	// per cycle) — the signal dynamic scheme selection keys on.
	FPaOcc float64 `json:"fpa_occ"`
	// OffloadRatio is the fraction of issued instructions that went to FPa.
	OffloadRatio float64 `json:"offload_ratio"`

	// DominantStall names the cause with the most stalled cycles in the
	// phase ("none" when every cycle issued), and DominantStallFrac its
	// share of the phase's cycles.
	DominantStall     string  `json:"dominant_stall"`
	DominantStallFrac float64 `json:"dominant_stall_frac"`
}

// Segment runs change-point detection over the timeline and returns its
// phases. The phases partition [0, len(Windows)): every window belongs to
// exactly one phase, so summing phase cycles reproduces TotalCycles.
func (t *Timeline) Segment() []Phase {
	n := len(t.Windows)
	if n == 0 {
		return nil
	}

	// Change-point pass: find phase start indices.
	dim := 2 + len(t.StallCauses)
	mean := make([]float64, dim)
	feat := make([]float64, 0, dim)
	starts := []int{0}
	count := 0    // windows absorbed into the current phase
	streak := 0   // consecutive divergent windows
	streakAt := 0 // index of the first divergent window
	add := func(f []float64) {
		for i, v := range f {
			mean[i] += (v - mean[i]) / float64(count+1)
		}
		count++
	}
	reset := func() {
		for i := range mean {
			mean[i] = 0
		}
		count, streak = 0, 0
	}
	for i := 0; i < n; i++ {
		feat = t.Features(&t.Windows[i], feat)
		if count < segMinWindows {
			add(feat)
			continue
		}
		var dist float64
		for j, v := range feat {
			d := v - mean[j]
			if d < 0 {
				d = -d
			}
			dist += d
		}
		if dist <= segThreshold {
			// Converged again: any pending divergent windows were an
			// outlier blip — absorb them.
			if streak > 0 {
				for j := streakAt; j < i; j++ {
					add(t.Features(&t.Windows[j], feat[:0]))
				}
				feat = t.Features(&t.Windows[i], feat)
				streak = 0
			}
			add(feat)
			continue
		}
		if streak == 0 {
			streakAt = i
		}
		streak++
		if streak < segConfirm {
			continue
		}
		// Confirmed change: the new phase starts at the first divergent
		// window; seed it with the divergent run seen so far.
		starts = append(starts, streakAt)
		from := streakAt
		reset()
		for j := from; j <= i; j++ {
			add(t.Features(&t.Windows[j], feat[:0]))
		}
	}

	// Aggregate pass: exact window sums per phase.
	phases := make([]Phase, 0, len(starts))
	nc := len(t.StallCauses)
	causeCycles := make([]int64, nc)
	for pi, first := range starts {
		last := n - 1
		if pi+1 < len(starts) {
			last = starts[pi+1] - 1
		}
		p := Phase{ID: pi, FirstWindow: first, LastWindow: last, StartCycle: t.Windows[first].StartCycle}
		var issued, fpa int64
		for i := range causeCycles {
			causeCycles[i] = 0
		}
		for i := first; i <= last; i++ {
			w := &t.Windows[i]
			p.Cycles += w.Cycles
			p.Instructions += w.Instructions
			issued += w.IssuedTotal()
			fpa += w.IssuedFPa
			for c := 0; c < nc; c++ {
				causeCycles[c] += w.StallCauseCycles(c, nc)
			}
		}
		p.IPC = ratio(p.Instructions, p.Cycles)
		p.FPaOcc = ratio(fpa, p.Cycles)
		p.OffloadRatio = ratio(fpa, issued)
		p.DominantStall = "none"
		var top int64
		for c := 0; c < nc; c++ {
			if causeCycles[c] > top {
				top = causeCycles[c]
				p.DominantStall = t.StallCauses[c]
				p.DominantStallFrac = ratio(top, p.Cycles)
			}
		}
		phases = append(phases, p)
	}
	return phases
}
