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

// tlStride is the length of one window's flattened stall matrix.
const tlStride = 3 * NumStallCauses

// TimelineRecorder samples the pipeline's cumulative counters at
// fixed-width cycle boundaries into struct-of-arrays columns. The columns
// are recycled across runs on a warm Machine (reset truncates, append
// reuses capacity), so once a machine has run a program, re-running with
// the recorder armed allocates nothing — the property the zero-alloc
// test pins with the recorder enabled.
//
// In fast (sampled-timing) mode the pipeline clock only advances during
// detailed windows, so the recorded timeline covers the detailed
// warmup+measured cycles contiguously; functional-only bpred/cache
// traffic between detailed windows lands in the delta of the next
// recorded window.
type TimelineRecorder struct {
	width        int64
	nextBoundary int64
	base         tlSnapshot
	closed       bool

	n            int
	startCycle   []int64
	cycles       []int64
	instructions []int64
	issueActive  []int64
	issuedINT    []int64
	issuedFP     []int64
	issuedFPa    []int64
	loads        []int64
	stores       []int64
	intOccSum    []int64
	fpOccSum     []int64
	robOccSum    []int64
	bpLookups    []int64
	bpMisp       []int64
	icAcc        []int64
	icMiss       []int64
	dcAcc        []int64
	dcMiss       []int64
	faults       []int64
	stalls       []int64 // n × tlStride, row-major [sub][cause]
}

// reset rearms the recorder for a new run of the given window width,
// keeping column capacity.
func (r *TimelineRecorder) reset(width int64) {
	if width < 1 {
		width = 1
	}
	r.width = width
	r.nextBoundary = width
	r.base = tlSnapshot{}
	r.closed = false
	r.n = 0
	r.startCycle = r.startCycle[:0]
	r.cycles = r.cycles[:0]
	r.instructions = r.instructions[:0]
	r.issueActive = r.issueActive[:0]
	r.issuedINT = r.issuedINT[:0]
	r.issuedFP = r.issuedFP[:0]
	r.issuedFPa = r.issuedFPa[:0]
	r.loads = r.loads[:0]
	r.stores = r.stores[:0]
	r.intOccSum = r.intOccSum[:0]
	r.fpOccSum = r.fpOccSum[:0]
	r.robOccSum = r.robOccSum[:0]
	r.bpLookups = r.bpLookups[:0]
	r.bpMisp = r.bpMisp[:0]
	r.icAcc = r.icAcc[:0]
	r.icMiss = r.icMiss[:0]
	r.dcAcc = r.dcAcc[:0]
	r.dcMiss = r.dcMiss[:0]
	r.faults = r.faults[:0]
	r.stalls = r.stalls[:0]
}

// roll closes the window ending at the current cycle: it captures a
// boundary snapshot, appends the delta against the previous boundary as
// one window, and advances the boundary. Called from the pipeline's
// per-cycle step when the clock reaches nextBoundary, and from flush for
// the final partial window.
func (r *TimelineRecorder) roll(p *pipeline) {
	var now tlSnapshot
	now.capture(p)
	b := &r.base
	r.startCycle = append(r.startCycle, b.cycle)
	r.cycles = append(r.cycles, now.cycle-b.cycle)
	r.instructions = append(r.instructions, now.instructions-b.instructions)
	r.issueActive = append(r.issueActive, now.issueActive-b.issueActive)
	r.issuedINT = append(r.issuedINT, now.issuedINT-b.issuedINT)
	r.issuedFP = append(r.issuedFP, now.issuedFP-b.issuedFP)
	r.issuedFPa = append(r.issuedFPa, now.issuedFPa-b.issuedFPa)
	r.loads = append(r.loads, now.loads-b.loads)
	r.stores = append(r.stores, now.stores-b.stores)
	r.intOccSum = append(r.intOccSum, now.intOccSum-b.intOccSum)
	r.fpOccSum = append(r.fpOccSum, now.fpOccSum-b.fpOccSum)
	r.robOccSum = append(r.robOccSum, now.robOccSum-b.robOccSum)
	r.bpLookups = append(r.bpLookups, now.bpLookups-b.bpLookups)
	r.bpMisp = append(r.bpMisp, now.bpMisp-b.bpMisp)
	r.icAcc = append(r.icAcc, now.icAcc-b.icAcc)
	r.icMiss = append(r.icMiss, now.icMiss-b.icMiss)
	r.dcAcc = append(r.dcAcc, now.dcAcc-b.dcAcc)
	r.dcMiss = append(r.dcMiss, now.dcMiss-b.dcMiss)
	r.faults = append(r.faults, now.faults-b.faults)
	for sub := 0; sub < 3; sub++ {
		for c := 0; c < NumStallCauses; c++ {
			r.stalls = append(r.stalls, now.stalls[sub][c]-b.stalls[sub][c])
		}
	}
	r.n++
	r.base = now
	r.nextBoundary = now.cycle + r.width
}

// flush closes the final partial window, if any cycles have elapsed since
// the last boundary. Idempotent; called when the pipeline drains.
func (r *TimelineRecorder) flush(p *pipeline) {
	if r.closed {
		return
	}
	r.closed = true
	if p.cycle > r.base.cycle {
		r.roll(p)
	}
}

// Windows returns the number of windows recorded so far.
func (r *TimelineRecorder) Windows() int { return r.n }

// Build renders the recording as an fpint-timeline/v1 document. The
// document totals come from the final boundary snapshot — the pipeline's
// own cumulative counters — so Validate genuinely cross-checks the window
// sums against the run. Build allocates; call it after the run, not from
// the measured region.
func (r *TimelineRecorder) Build(program string, cfg Config) *timeline.Timeline {
	t := &timeline.Timeline{
		Schema:            timeline.Schema,
		Program:           program,
		Config:            cfg.Name,
		WindowWidth:       r.width,
		IssueWidth:        cfg.IssueWidth,
		TotalCycles:       r.base.cycle,
		TotalInstructions: r.base.instructions,
		Subsystems:        make([]string, 3),
		StallCauses:       make([]string, NumStallCauses),
		Windows:           make([]timeline.Window, r.n),
	}
	for sub := 0; sub < 3; sub++ {
		t.Subsystems[sub] = isa.Subsystem(sub).String()
	}
	for c := 0; c < NumStallCauses; c++ {
		t.StallCauses[c] = StallCause(c).String()
	}
	for i := 0; i < r.n; i++ {
		t.Windows[i] = timeline.Window{
			Index:            i,
			StartCycle:       r.startCycle[i],
			Cycles:           r.cycles[i],
			Instructions:     r.instructions[i],
			IssueActive:      r.issueActive[i],
			IssuedINT:        r.issuedINT[i],
			IssuedFP:         r.issuedFP[i],
			IssuedFPa:        r.issuedFPa[i],
			Loads:            r.loads[i],
			Stores:           r.stores[i],
			IntOccSum:        r.intOccSum[i],
			FpOccSum:         r.fpOccSum[i],
			ROBOccSum:        r.robOccSum[i],
			BpredLookups:     r.bpLookups[i],
			BpredMispredicts: r.bpMisp[i],
			ICacheAccesses:   r.icAcc[i],
			ICacheMisses:     r.icMiss[i],
			DCacheAccesses:   r.dcAcc[i],
			DCacheMisses:     r.dcMiss[i],
			Faults:           r.faults[i],
			Stalls:           append([]int64(nil), r.stalls[i*tlStride:(i+1)*tlStride]...),
		}
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
