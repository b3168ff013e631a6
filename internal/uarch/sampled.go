package uarch

import (
	"math"

	"fpint/internal/isa"
	"fpint/internal/sim"
)

// SampleConfig controls the sampled-timing fast mode: functional execution
// with periodic detailed-timing windows, in the style of SMARTS periodic
// sampling. The dynamic instruction stream is cut into units of Width
// instructions; every Period-th unit (phase chosen by Seed) is simulated
// in full cycle-level detail, preceded by Warmup detailed instructions
// that refill the out-of-order window before measurement starts. All other
// instructions execute functionally while still training the branch
// predictor and touching the caches, so long-lived microarchitectural
// state stays warm between windows.
type SampleConfig struct {
	// Period is the sampling period in units: one unit out of every
	// Period is measured. Period <= 1 degenerates to the full detailed
	// model (every instruction measured, zero estimation error).
	Period int
	// Width is the sampling-unit size in instructions.
	Width int
	// Warmup is the number of detailed (but unmeasured) instructions fed
	// to the pipeline before each measured unit.
	Warmup int
	// Seed picks the phase of the measured units within the period and
	// makes the estimate deterministic for a fixed (Seed, Period, Width).
	Seed uint64
}

// DefaultSampleConfig returns the fast-mode defaults: 500-instruction
// units, one in four measured after a 500-instruction detailed warmup — a
// conservative 25% measured fraction that keeps the cycle-estimate error
// within the acceptance test's 5% bound even on the small testdata
// programs. Long-running sweeps should raise Period (20–50 works well
// above a few hundred thousand instructions) to trade accuracy for
// speed; error grows slowly because the measured units still sweep all
// period phases.
func DefaultSampleConfig() SampleConfig {
	return SampleConfig{Period: 4, Width: 500, Warmup: 500, Seed: 1}
}

// windowCap bounds Warmup+Width so a detailed window always fits the
// pipeline's pending buffer without triggering mid-window stepping that
// would skip the warmup/measure boundary snapshot.
const windowCap = 8000

func (sc SampleConfig) withDefaults() SampleConfig {
	def := DefaultSampleConfig()
	if sc.Period == 0 {
		sc.Period = def.Period
	}
	if sc.Width <= 0 {
		sc.Width = def.Width
	}
	if sc.Warmup < 0 {
		sc.Warmup = 0
	} else if sc.Warmup == 0 {
		sc.Warmup = def.Warmup
	}
	if sc.Width > windowCap {
		sc.Width = windowCap
	}
	if sc.Warmup > windowCap-sc.Width {
		sc.Warmup = windowCap - sc.Width
	}
	return sc
}

// SampledStats is the fast mode's timing estimate. The embedded Stats
// holds extrapolated totals: Cycles, IssueActiveCycles, and StallBySub are
// scaled from the measured windows (the ledger closes by construction —
// IssueActiveCycles + ΣStallBySub == Cycles), while Instructions, Loads,
// Stores, and the per-subsystem issue counts are exact functional counts.
// Branch-predictor and cache totals are exact too: the predictor and both
// caches observe the entire instruction stream, detailed or not. Histogram
// slices cover only the detailed windows, rescaled to the estimated cycle
// count.
type SampledStats struct {
	Stats

	// Exact reports that the numbers come from the full detailed model
	// with no extrapolation: Period <= 1, or a program too short to
	// produce a single measured window (the fallback path).
	Exact bool
	// MeasuredInstructions and MeasuredCycles cover the measured parts of
	// the detailed windows (warmup excluded).
	MeasuredInstructions int64
	MeasuredCycles       int64
	// Windows is the number of measured windows.
	Windows int
	// SampledFraction is MeasuredInstructions / Instructions.
	SampledFraction float64
}

// sampler drives the periodic-detailed-window state machine from the
// functional simulator's trace callback.
type sampler struct {
	pipe *Pipeline
	sc   SampleConfig

	n int64 // next dynamic instruction index

	inWindow  bool
	winStart  int64 // first instruction of the current/next window
	measStart int64 // first measured instruction of that window
	winEnd    int64 // first instruction past the window
	phase     int64 // seed-derived base phase within the period
	group     int64 // next period-group to pick a measured unit from
	winFed    int64 // events fed to the pipeline in the current window
	instrBase int64 // pipeline committed-instruction count at window entry

	lastLine int64 // functional I-cache warming: last line probed

	// Accumulators over measured parts of windows.
	windows    int
	measInstr  int64
	measCycles int64
	measActive int64
	measStalls [3][NumStallCauses]int64
	measIdle   int64 // IntIdleFPaBusy
}

func newSampler(p *Pipeline, sc SampleConfig) *sampler {
	s := &sampler{pipe: p, sc: sc, lastLine: -1}
	s.phase = int64(splitmix64(sc.Seed) % uint64(sc.Period))
	s.schedule()
	return s
}

// phaseRotation decorrelates the measured units from program loop
// structure: picking the same phase in every period-group aliases badly
// with loops whose trip "wavelength" divides Period×Width, so the phase
// advances by a fixed odd stride per group, sweeping all offsets.
const phaseRotation = 7

// schedule computes the bounds of the next measured window: one unit out
// of the next period-group of units, at a per-group rotated phase. Warmup
// is clipped so windows never overlap (and never reach before the stream
// position at scheduling time).
func (s *sampler) schedule() {
	period := int64(s.sc.Period)
	unit := s.group*period + (s.phase+s.group*phaseRotation)%period
	if unit == 0 {
		// Never measure the very first unit: it would be measured with no
		// warmup on a cold pipeline and would fold program-startup
		// transients into the extrapolation with full weight.
		unit = period / 2
	}
	s.group++
	s.measStart = unit * int64(s.sc.Width)
	s.winEnd = s.measStart + int64(s.sc.Width)
	s.winStart = s.measStart - int64(s.sc.Warmup)
	if s.winStart < s.n {
		s.winStart = s.n
	}
}

// feed is the sim.Machine trace callback in fast mode.
func (s *sampler) feed(ev sim.Event) {
	n := s.n
	s.n++
	if !s.inWindow {
		if n < s.winStart {
			s.warm(&ev)
			return
		}
		s.enterWindow()
	}
	s.pipe.Feed(ev)
	s.winFed++
	if s.n == s.winEnd {
		s.closeWindow()
	}
}

// warm trains the long-lived microarchitectural state — branch predictor,
// D-cache, I-cache — on a functionally executed instruction, mirroring
// what the detailed front end and load/store unit would have done.
func (s *sampler) warm(ev *sim.Event) {
	p := s.pipe
	line := (int64(ev.PC) * 8) / int64(p.cfg.ICacheLine)
	if line != s.lastLine {
		s.lastLine = line
		p.icache.Access(int64(ev.PC)*8, false)
	}
	if isa.IsCondBranch(ev.Op) {
		p.bpred.PredictAndUpdate(ev.PC, ev.Taken)
	} else if isa.IsLoad(ev.Op) {
		p.dcache.Access(ev.MemAddr, false)
	} else if isa.IsStore(ev.Op) {
		p.dcache.Access(ev.MemAddr, true)
	}
}

// enterWindow resets the pipeline's structural state (keeping predictor
// and cache contents) and starts feeding it detailed events.
func (s *sampler) enterWindow() {
	s.inWindow = true
	s.winFed = 0
	s.instrBase = s.pipe.stats.Instructions
	s.pipe.resetCore()
}

// closeWindow drains the pipeline, snapshotting the ledger at the
// warmup/measure boundary so only the measured instructions' cycles are
// accumulated, then schedules the next window.
func (s *sampler) closeWindow() {
	p := s.pipe
	warmCount := s.measStart - s.winStart
	if warmCount < 0 {
		warmCount = 0
	}
	if warmCount > s.winFed {
		warmCount = s.winFed // halted during warmup: nothing measured
	}
	meas := s.winFed - warmCount
	// Drain the warmup prefix.
	warmTarget := s.instrBase + warmCount
	for p.stats.Instructions < warmTarget {
		p.step()
	}
	c0 := p.cycle
	a0 := p.stats.IssueActiveCycles
	st0 := p.stats.StallBySub
	idle0 := p.stats.IntIdleFPaBusy
	// Step until the last measured instruction commits.
	measTarget := warmTarget + meas
	for p.stats.Instructions < measTarget {
		p.step()
	}
	if meas > 0 {
		s.windows++
		s.measInstr += meas
		s.measCycles += p.cycle - c0
		s.measActive += p.stats.IssueActiveCycles - a0
		s.measIdle += p.stats.IntIdleFPaBusy - idle0
		for sub := 0; sub < 3; sub++ {
			for c := 0; c < NumStallCauses; c++ {
				s.measStalls[sub][c] += p.stats.StallBySub[sub][c] - st0[sub][c]
			}
		}
	}
	s.inWindow = false
	s.lastLine = -1
	s.schedule()
}

// finish closes a window left open when the program halted mid-window.
func (s *sampler) finish() {
	if s.inWindow {
		s.winEnd = s.n
		s.closeWindow()
	}
}

// resetCore restores the pipeline's structural state (clock, ROB, pending
// queue, rename table, fetch/fault state, occupancy counters) for a new
// detailed window while preserving the branch predictor, the caches, and
// the accumulated statistics. Reset calls it as part of the full reset.
func (p *Pipeline) resetCore() {
	p.pending = p.pending[:0]
	p.pendHead = 0
	p.pendBase = 0
	p.rob.reset()
	p.robBase, p.head, p.tail, p.dispatch = 0, 0, 0, 0
	for i := range p.rename {
		p.rename[i] = -1
	}
	p.fetchBlockedOn = -1
	p.icacheStallUntil = 0
	p.lastFetchLine = -1
	p.recoverBlockedOn = -1
	p.intWinCount, p.fpWinCount, p.inFlight = 0, 0, 0
	p.intDefs, p.fpDefs = 0, 0
	p.issuedOldestPC = UnknownPC
	p.issuedOldestSub = isa.SubINT
}

// RunSampled executes prog in the fast mode: full-fidelity functional
// simulation (the result is bit-identical to Run's) with timing
// extrapolated from periodic detailed windows. With sc.Period <= 1 it is
// exactly Run. The journal, profiling, and fault probes are detailed-mode
// features: they apply only when the run falls back to Run.
func (m *Machine) RunSampled(prog *isa.Program, sc SampleConfig) (*sim.Result, SampledStats, error) {
	sc = sc.withDefaults()
	if sc.Period <= 1 {
		res, st, err := m.Run(prog)
		if err != nil {
			return nil, SampledStats{}, err
		}
		r, ss := exactSampled(res, st)
		return r, ss, nil
	}
	m.reset(prog)
	s := newSampler(m.pipe, sc)
	m.fm.Trace = s.feed
	res, err := m.fm.Run()
	m.fm.Trace = m.pipe.Feed
	if err != nil {
		return nil, SampledStats{}, err
	}
	s.finish()
	if m.pipe.rec != nil {
		// Fast mode never calls Pipeline.Finish; close the recorder's
		// final partial window here. The recorded windows cover the
		// detailed (warmup+measured) cycles only — the caller flags the
		// built timeline as estimated.
		m.pipe.rec.flush(m.pipe)
	}
	if s.measInstr == 0 {
		// Too short to produce a single measured window: fall back to the
		// detailed model, which is cheap at this size.
		res, st, err := m.Run(prog)
		if err != nil {
			return nil, SampledStats{}, err
		}
		r, ss := exactSampled(res, st)
		return r, ss, nil
	}
	return res, s.estimate(res), nil
}

// RunSampled executes prog in the fast mode on a fresh machine; see
// Machine.RunSampled.
func RunSampled(prog *isa.Program, cfg Config, sc SampleConfig) (*sim.Result, SampledStats, error) {
	return NewMachine(cfg).RunSampled(prog, sc)
}

func exactSampled(res *sim.Result, st Stats) (*sim.Result, SampledStats) {
	return res, SampledStats{
		Stats:                st,
		Exact:                true,
		MeasuredInstructions: st.Instructions,
		MeasuredCycles:       st.Cycles,
		Windows:              1,
		SampledFraction:      1,
	}
}

// estimate extrapolates whole-run statistics from the measured windows.
func (s *sampler) estimate(res *sim.Result) SampledStats {
	p := s.pipe
	total := res.Stats.Total
	scale := float64(total) / float64(s.measInstr)
	round := func(v int64) int64 { return int64(math.Round(float64(v) * scale)) }

	var est Stats
	// Exact functional counts.
	est.Instructions = total
	est.Loads = res.Stats.Loads
	est.Stores = res.Stats.Stores
	est.IssuedINT = res.Stats.BySubsys[isa.SubINT]
	est.IssuedFP = res.Stats.BySubsys[isa.SubFP]
	est.IssuedFPa = res.Stats.BySubsys[isa.SubFPa]
	// Exact microarchitectural totals: predictor and caches saw the whole
	// stream (functionally warmed between windows).
	est.BpredLookups = p.bpred.Lookups
	est.BpredMispredicts = p.bpred.Mispredicts
	est.ICacheMissRate = p.icache.MissRate()
	est.DCacheMissRate = p.dcache.MissRate()
	// Extrapolated ledger: scaling active cycles and every stall cell
	// independently and summing keeps the closure invariant exact.
	est.IssueActiveCycles = round(s.measActive)
	cycles := est.IssueActiveCycles
	for sub := 0; sub < 3; sub++ {
		for c := 0; c < NumStallCauses; c++ {
			v := round(s.measStalls[sub][c])
			est.StallBySub[sub][c] = v
			cycles += v
		}
	}
	est.Cycles = cycles
	est.IntIdleFPaBusy = round(s.measIdle)
	est.FetchMispredictStalls = round(p.stats.FetchMispredictStalls)
	est.FetchICacheStalls = round(p.stats.FetchICacheStalls)
	// Histograms cover only the detailed windows; rescale them toward the
	// estimated cycle count so their masses stay comparable across modes.
	winCycles := p.cycle
	hscale := 0.0
	if winCycles > 0 {
		hscale = float64(cycles) / float64(winCycles)
	}
	hist := func(src []int64) []int64 {
		out := make([]int64, len(src))
		for i, v := range src {
			out[i] = int64(math.Round(float64(v) * hscale))
		}
		return out
	}
	est.IssueSlotCycles = hist(p.stats.IssueSlotCycles)
	est.IntWinOcc = hist(p.stats.IntWinOcc)
	est.FpWinOcc = hist(p.stats.FpWinOcc)
	est.ROBOcc = hist(p.stats.ROBOcc)

	return SampledStats{
		Stats:                est,
		MeasuredInstructions: s.measInstr,
		MeasuredCycles:       s.measCycles,
		Windows:              s.windows,
		SampledFraction:      float64(s.measInstr) / float64(total),
	}
}

// splitmix64 is the standard 64-bit mix, used to derive the sampling phase
// from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
