package uarch

import (
	"fpint/internal/isa"
	"fpint/internal/obs/timeline"
)

// tlSnapshot is the cumulative counter state at a window boundary. Every
// window is the exact difference of two boundary snapshots, so the
// recorded timeline closes against the run's final ledger by construction
// — no second accounting to drift out of sync.
type tlSnapshot struct {
	cycle        int64
	instructions int64
	issueActive  int64
	issuedINT    int64
	issuedFP     int64
	issuedFPa    int64
	loads        int64
	stores       int64
	intOccSum    int64
	fpOccSum     int64
	robOccSum    int64
	bpLookups    int64
	bpMisp       int64
	icAcc        int64
	icMiss       int64
	dcAcc        int64
	dcMiss       int64
	faults       int64
	stalls       [3][NumStallCauses]int64
}

func (s *tlSnapshot) capture(p *pipeline) {
	s.cycle = p.cycle
	s.instructions = p.stats.Instructions
	s.issueActive = p.stats.IssueActiveCycles
	s.issuedINT = p.stats.IssuedINT
	s.issuedFP = p.stats.IssuedFP
	s.issuedFPa = p.stats.IssuedFPa
	s.loads = p.stats.Loads
	s.stores = p.stats.Stores
	s.intOccSum = p.occIntSum
	s.fpOccSum = p.occFpSum
	s.robOccSum = p.occROBSum
	s.bpLookups = p.bpred.Lookups
	s.bpMisp = p.bpred.Mispredicts
	s.icAcc = p.icache.Accesses
	s.icMiss = p.icache.Misses
	s.dcAcc = p.dcache.Accesses
	s.dcMiss = p.dcache.Misses
	s.faults = p.stats.FaultsInjected
	s.stalls = p.stats.StallBySub
}

// TimelineRecorder keeps the pipeline's cumulative counters at each
// fixed-width cycle boundary; window i is the difference of snapshots i
// and i+1. The snapshot slice is recycled across runs on a warm Machine
// (reset truncates, append reuses capacity), so once a machine has run a
// program, re-running with the recorder armed allocates nothing — the
// property the zero-alloc test pins with the recorder enabled.
//
// In fast (sampled-timing) mode the pipeline clock only advances during
// detailed windows, so the recorded timeline covers the detailed
// warmup+measured cycles contiguously; functional-only bpred/cache
// traffic between detailed windows lands in the delta of the next
// recorded window.
type TimelineRecorder struct {
	width        int64
	nextBoundary int64
	closed       bool
	// snaps[0] is the zero state at the run's start, then one snapshot
	// per closed window.
	snaps []tlSnapshot
}

// reset rearms the recorder for a new run of the given window width,
// keeping the snapshots' capacity.
func (r *TimelineRecorder) reset(width int64) {
	r.width = max(width, 1)
	r.nextBoundary = r.width
	r.closed = false
	r.snaps = append(r.snaps[:0], tlSnapshot{})
}

// roll closes the window ending at the current cycle: it appends a
// boundary snapshot and advances the boundary. Called from the pipeline's
// per-cycle step when the clock reaches nextBoundary, and from flush for
// the final partial window.
func (r *TimelineRecorder) roll(p *pipeline) {
	r.snaps = append(r.snaps, tlSnapshot{})
	now := &r.snaps[len(r.snaps)-1]
	now.capture(p)
	r.nextBoundary = now.cycle + r.width
}

// flush closes the final partial window, if any cycles have elapsed since
// the last boundary. Idempotent; called when the pipeline drains.
func (r *TimelineRecorder) flush(p *pipeline) {
	if r.closed {
		return
	}
	r.closed = true
	if p.cycle > r.snaps[len(r.snaps)-1].cycle {
		r.roll(p)
	}
}

// window returns the counter deltas from snapshot b to s as window i.
func (s *tlSnapshot) window(i int, b *tlSnapshot) timeline.Window {
	w := timeline.Window{
		Index:            i,
		StartCycle:       b.cycle,
		Cycles:           s.cycle - b.cycle,
		Instructions:     s.instructions - b.instructions,
		IssueActive:      s.issueActive - b.issueActive,
		IssuedINT:        s.issuedINT - b.issuedINT,
		IssuedFP:         s.issuedFP - b.issuedFP,
		IssuedFPa:        s.issuedFPa - b.issuedFPa,
		Loads:            s.loads - b.loads,
		Stores:           s.stores - b.stores,
		IntOccSum:        s.intOccSum - b.intOccSum,
		FpOccSum:         s.fpOccSum - b.fpOccSum,
		ROBOccSum:        s.robOccSum - b.robOccSum,
		BpredLookups:     s.bpLookups - b.bpLookups,
		BpredMispredicts: s.bpMisp - b.bpMisp,
		ICacheAccesses:   s.icAcc - b.icAcc,
		ICacheMisses:     s.icMiss - b.icMiss,
		DCacheAccesses:   s.dcAcc - b.dcAcc,
		DCacheMisses:     s.dcMiss - b.dcMiss,
		Faults:           s.faults - b.faults,
		Stalls:           make([]int64, 0, 3*NumStallCauses),
	}
	for sub := range s.stalls {
		for c := range s.stalls[sub] {
			w.Stalls = append(w.Stalls, s.stalls[sub][c]-b.stalls[sub][c])
		}
	}
	return w
}

// Build renders the recording as an fpint-timeline/v1 document. The
// document totals come from the final boundary snapshot — the pipeline's
// own cumulative counters — so Validate genuinely cross-checks the window
// sums against the run. Build allocates; call it after the run, not from
// the measured region.
func (r *TimelineRecorder) Build(program string, cfg Config) *timeline.Timeline {
	var last tlSnapshot // zero before the first run
	if len(r.snaps) > 0 {
		last = r.snaps[len(r.snaps)-1]
	}
	t := &timeline.Timeline{
		Schema:            timeline.Schema,
		Program:           program,
		Config:            cfg.Name,
		WindowWidth:       r.width,
		IssueWidth:        cfg.IssueWidth,
		TotalCycles:       last.cycle,
		TotalInstructions: last.instructions,
		Subsystems:        make([]string, 3),
		StallCauses:       make([]string, NumStallCauses),
		Windows:           make([]timeline.Window, max(len(r.snaps)-1, 0)),
	}
	for sub := 0; sub < 3; sub++ {
		t.Subsystems[sub] = isa.Subsystem(sub).String()
	}
	for c := 0; c < NumStallCauses; c++ {
		t.StallCauses[c] = StallCause(c).String()
	}
	for i := range t.Windows {
		t.Windows[i] = r.snaps[i+1].window(i, &r.snaps[i])
	}
	return t
}

// SetTimelineWidth arms the machine's flight recorder: every subsequent
// run (detailed or sampled, with any probes armed) records a timeline with
// the given window width in cycles. Width 0 disables recording; negative
// widths are treated as 1. The recorder is machine-owned and recycled
// across runs, preserving the warm machine's zero-allocation property.
func (m *Machine) SetTimelineWidth(width int64) {
	m.tlWidth = width
	if width > 0 && m.rec == nil {
		m.rec = &TimelineRecorder{}
	}
}

// Timeline builds the fpint-timeline/v1 document for the machine's most
// recent run, or nil when no recorder is armed. The document is a fresh
// copy and remains valid across later runs.
func (m *Machine) Timeline(program string) *timeline.Timeline {
	if m.tlWidth <= 0 || m.rec == nil {
		return nil
	}
	return m.rec.Build(program, m.cfg)
}
