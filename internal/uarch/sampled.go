package uarch

import (
	"math"

	"fpint/internal/isa"
	"fpint/internal/obs"
	"fpint/internal/sim"
)

// SampleConfig controls the sampled-timing fast mode: functional execution
// with periodic detailed-timing windows, in the style of SMARTS periodic
// sampling. The dynamic instruction stream is cut into units of Width
// instructions; one unit in every period-group (phase chosen by Seed) is
// simulated in full cycle-level detail, preceded by Warmup detailed
// instructions that refill the out-of-order window before measurement
// starts. All other instructions execute functionally while still training
// the branch predictor and touching the caches, so long-lived
// microarchitectural state stays warm between windows.
//
// The period is not fixed. Sampling starts at Period and runs in strata: a
// stratum is a run of period-groups sampled at one period. Once a stratum
// has measured enough windows that its mean window CPI is known to the
// precision target (see converged), the period doubles — up to
// maxDoublingPeriod — and a new stratum starts at the next group boundary.
// Each stratum is extrapolated over the instructions it covers, so phases
// sampled at different densities are weighted by their length.
type SampleConfig struct {
	// Period is the starting sampling period in units: one unit out of
	// every Period is measured until the first stratum converges. Period
	// <= 1 degenerates to the full detailed model (every instruction
	// measured, zero estimation error).
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
// units, starting at one in four measured, each after a 200-instruction
// detailed warmup. The predictor and caches are functionally warmed
// between windows, so the warmup only has to refill the out-of-order
// window; 200 instructions is more than three times the largest ROB.
func DefaultSampleConfig() SampleConfig {
	return SampleConfig{Period: 4, Width: 500, Warmup: 200, Seed: 1}
}

// windowCap bounds Warmup+Width: the sampler copies a whole detailed window
// into the pipeline's pending buffer, whose capacity is fixed when the
// machine is built, before timing it.
const windowCap = 8000

// The stratum precision target. A stratum converges, and the period
// doubles, once it has at least minStratumWindows measured windows and the
// 99.7% confidence half-width of its mean window CPI, 3σ/√n, is within
// relCITarget of the mean. The period stops doubling at maxDoublingPeriod.
const (
	minStratumWindows = 64
	relCITarget       = 0.01
	maxDoublingPeriod = 32
)

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
// holds extrapolated totals: Cycles, IssueActiveCycles, StallBySub,
// IntIdleFPaBusy and FetchMispredictStalls are scaled from the measured
// windows stratum by stratum (the ledger closes by construction —
// IssueActiveCycles + ΣStallBySub == Cycles), while Instructions, Loads,
// Stores, and the per-subsystem issue counts are exact functional counts.
// Branch-predictor and cache totals are exact too: the predictor and both
// caches observe the entire instruction stream, detailed or not, and
// FetchICacheStalls follows from the I-cache miss count. Histogram slices
// cover only the detailed windows, rescaled to the estimated cycle count.
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
	// DetailedInstructions counts every instruction the detailed pipeline
	// simulated, warmup included: the part of the stream that paid the
	// cycle-level cost.
	DetailedInstructions int64
	// Windows is the number of measured windows.
	Windows int
	// SampledFraction is MeasuredInstructions / Instructions.
	SampledFraction float64
	// FinalPeriod is the sampling period of the last stratum: the starting
	// period, doubled once per converged stratum (1 when Exact).
	FinalPeriod int
	// RelCI is the 99.7% confidence half-width of the cycle estimate,
	// relative to it: 3·sqrt(Σ covered² · s²/n) / Cycles over the strata,
	// where s² is a stratum's window-CPI variance and n its window count
	// (strata with fewer than two windows contribute no variance). Zero
	// when Exact.
	RelCI float64
}

// AddTo exports the estimate into a metrics registry under the given
// prefix: the extrapolated Stats as Stats.AddTo does, plus the fast.*
// provenance gauges.
func (s *SampledStats) AddTo(r *obs.Registry, prefix string) {
	s.Stats.AddTo(r, prefix)
	g := func(name string, v float64) { r.Gauge(prefix + name).Set(v) }
	g(obs.MetricFastWindows, float64(s.Windows))
	g(obs.MetricFastMeasuredInstructions, float64(s.MeasuredInstructions))
	g(obs.MetricFastMeasuredCycles, float64(s.MeasuredCycles))
	g(obs.MetricFastSampledFraction, s.SampledFraction)
	g(obs.MetricFastFinalPeriod, float64(s.FinalPeriod))
	g(obs.MetricFastRelCI, s.RelCI)
	exact := 0.0
	if s.Exact {
		exact = 1
	}
	g(obs.MetricFastExact, exact)
}

// stratum is a run of period-groups sampled at one period: its position in
// the unit stream, its measured totals, and the running statistics of its
// per-window CPI.
type stratum struct {
	period    int64
	startUnit int64 // first unit of the stratum's first period-group

	windows int
	instr   int64 // measured instructions
	cycles  int64
	active  int64
	stalls  [3][NumStallCauses]int64
	idle    int64 // IntIdleFPaBusy
	fetchBr int64 // FetchMispredictStalls

	// Welford running mean and sum of squared deviations of window CPI.
	cpiMean, cpiM2 float64
}

// addWindow folds one measured window's CPI into the running statistics.
func (st *stratum) addWindow(instr, cycles int64) {
	st.windows++
	cpi := float64(cycles) / float64(instr)
	d := cpi - st.cpiMean
	st.cpiMean += d / float64(st.windows)
	st.cpiM2 += d * (cpi - st.cpiMean)
}

// cpiVar is the sample variance of window CPI (0 below two windows).
func (st *stratum) cpiVar() float64 {
	if st.windows < 2 {
		return 0
	}
	return st.cpiM2 / float64(st.windows-1)
}

// converged reports whether the stratum's mean CPI meets the precision
// target: enough windows, and 3σ/√n within relCITarget of the mean.
func (st *stratum) converged() bool {
	if st.windows < minStratumWindows {
		return false
	}
	halfWidth := 3 * math.Sqrt(st.cpiVar()/float64(st.windows))
	return halfWidth <= relCITarget*st.cpiMean
}

// sampler drives the stratified detailed-window state machine over the
// functional simulator's record stream.
type sampler struct {
	pipe *pipeline
	sc   SampleConfig

	n int64 // next dynamic instruction index

	winStart  int64  // first instruction of the current/next window
	measStart int64  // first measured instruction of that window
	winEnd    int64  // first instruction past the window
	phaseHash uint64 // seed-derived; reduced modulo each stratum's period
	group     int64  // next period-group of the current stratum
	groups    int64  // period-groups scheduled so far, across strata
	winFed    int64  // records stepped into the current window
	instrBase int64  // pipeline committed-instruction count at window entry
	detailed  int64  // records timed in detail over all windows

	lastLine int64 // functional I-cache warming: last line probed

	// strata holds every stratum so far; the last one is being sampled.
	strata []stratum
}

func newSampler(p *pipeline, sc SampleConfig) *sampler {
	s := &sampler{pipe: p, sc: sc, lastLine: -1, phaseHash: splitmix64(sc.Seed)}
	s.strata = append(make([]stratum, 0, 4), stratum{period: int64(sc.Period)})
	s.schedule()
	return s
}

// phaseRotation decorrelates the measured units from program loop
// structure: picking the same phase in every period-group aliases badly
// with loops whose trip "wavelength" divides Period×Width, so the phase
// advances by a fixed odd stride per group, which sweeps every offset of
// any power-of-two period, doubled or not.
const phaseRotation = 7

// schedule computes the bounds of the next measured window: one unit out
// of the current stratum's next period-group, at a per-group rotated phase.
// Warmup is clipped so windows never overlap (and never reach before the
// stream position at scheduling time).
func (s *sampler) schedule() {
	st := &s.strata[len(s.strata)-1]
	period := st.period
	phase := int64(s.phaseHash % uint64(period))
	unit := st.startUnit + s.group*period + (phase+s.groups*phaseRotation)%period
	if unit == 0 {
		// Never measure the very first unit: it would be measured with no
		// warmup on a cold pipeline and would fold program-startup
		// transients into the extrapolation with full weight.
		unit = period / 2
	}
	s.group++
	s.groups++
	s.measStart = unit * int64(s.sc.Width)
	s.winEnd = s.measStart + int64(s.sc.Width)
	s.winStart = s.measStart - int64(s.sc.Warmup)
	if s.winStart < s.n {
		s.winStart = s.n
	}
}

// maybeDouble starts a new stratum at twice the period, beginning at the
// next group boundary, once the current one has converged.
func (s *sampler) maybeDouble() {
	st := &s.strata[len(s.strata)-1]
	if st.period >= maxDoublingPeriod || !st.converged() {
		return
	}
	next := stratum{period: 2 * st.period, startUnit: st.startUnit + s.group*st.period}
	s.strata = append(s.strata, next)
	s.group = 0
}

// run drives a fast-mode run to HALT. Up to each window's start the
// feed's records only warm the predictor and caches, read in place in the
// ring; the window's records are then copied into pending, whole, and
// timed by closeWindow. A window cut short by HALT is timed with what it
// holds.
func (s *sampler) run(f *feed) (*sim.Result, error) {
	p := s.pipe
	for {
		for s.n < s.winStart {
			recs, res, err := f.next(int(s.winStart - s.n))
			if res != nil || err != nil {
				return res, err
			}
			s.warm(recs)
			s.n += int64(len(recs))
		}
		s.instrBase = p.stats.Instructions
		p.resetCore()
		var res *sim.Result
		for s.n < s.winEnd && res == nil {
			recs, r, err := f.next(int(s.winEnd - s.n))
			if err != nil {
				return nil, err
			}
			p.pending = append(p.pending, recs...)
			s.n += int64(len(recs))
			res = r
		}
		s.winFed = int64(len(p.pending))
		s.closeWindow()
		if res != nil {
			return res, nil
		}
	}
}

// warm trains the long-lived microarchitectural state — branch predictor,
// D-cache, I-cache — on functionally executed instructions, mirroring
// what the detailed front end and load/store unit would have done.
func (s *sampler) warm(recs []sim.Record) {
	p := s.pipe
	for i := range recs {
		r := &recs[i]
		si := &p.static[r.PC]
		if si.line != s.lastLine {
			s.lastLine = si.line
			p.icache.Access(int64(r.PC)*8, false)
		}
		switch {
		case si.flags&fCondBranch != 0:
			p.bpred.PredictAndUpdate(int(r.PC), r.Taken)
		case si.flags&fIsLoad != 0:
			p.dcache.Access(r.MemAddr, false)
		case si.flags&fIsStore != 0:
			p.dcache.Access(r.MemAddr, true)
		}
	}
}

// closeWindow times the window buffered in pending, snapshotting the
// ledger and the fetch stall counters at the warmup/measure boundary so
// only the measured instructions' cycles are accumulated into the current
// stratum, then doubles the period if the stratum has converged and
// schedules the next window. A window cut short by HALT measures what it
// holds.
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
	s.detailed += s.winFed
	// Drain the warmup prefix.
	warmTarget := s.instrBase + warmCount
	for p.stats.Instructions < warmTarget {
		p.step()
	}
	c0 := p.cycle
	base := p.stats
	// Step until the last measured instruction commits.
	measTarget := warmTarget + meas
	for p.stats.Instructions < measTarget {
		p.step()
	}
	if meas > 0 {
		st := &s.strata[len(s.strata)-1]
		cycles := p.cycle - c0
		st.addWindow(meas, cycles)
		st.instr += meas
		st.cycles += cycles
		st.active += p.stats.IssueActiveCycles - base.IssueActiveCycles
		st.idle += p.stats.IntIdleFPaBusy - base.IntIdleFPaBusy
		st.fetchBr += p.stats.FetchMispredictStalls - base.FetchMispredictStalls
		for sub := 0; sub < 3; sub++ {
			for c := 0; c < NumStallCauses; c++ {
				st.stalls[sub][c] += p.stats.StallBySub[sub][c] - base.StallBySub[sub][c]
			}
		}
		s.maybeDouble()
	}
	s.lastLine = -1
	s.schedule()
}

// resetCore restores the pipeline's structural state (ROB, ready set,
// store queue, pending queue, rename table, fetch/fault state, occupancy
// counters) for a new detailed window while preserving the clock, the
// branch predictor, the caches, and the accumulated statistics. reset
// calls it as part of the full reset.
func (p *pipeline) resetCore() {
	p.pending = p.pending[:0]
	p.pendHead = 0
	p.head, p.tail, p.dispatch, p.unissued = 0, 0, 0, 0
	p.ready = [len(p.ready)]uint64{}
	p.sqHead, p.sqTail = 0, 0
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
	m.feed.start()
	defer m.feed.close()
	s := newSampler(m.pipe, sc)
	res, err := s.run(m.feed)
	if err != nil {
		return nil, SampledStats{}, err
	}
	if m.pipe.rec != nil {
		// Fast mode never calls pipeline.finish; close the recorder's
		// final partial window here. The recorded windows cover the
		// detailed (warmup+measured) cycles only — the caller flags the
		// built timeline as estimated.
		m.pipe.rec.flush(m.pipe)
	}
	if s.strata[0].instr == 0 {
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
		DetailedInstructions: st.Instructions,
		Windows:              1,
		SampledFraction:      1,
		FinalPeriod:          1,
	}
}

// estimate extrapolates whole-run statistics from the measured windows,
// stratum by stratum. Stratum k covers the instructions from its first
// unit to the next stratum's first unit (the last one to the end of the
// run), and each of its measured cells is weighted by covered/measured
// instructions. A trailing stratum that measured nothing folds into the one
// before it. Every cell is summed across strata and rounded once, and
// Cycles is the sum of the rounded ledger cells.
func (s *sampler) estimate(res *sim.Result) SampledStats {
	p := s.pipe
	total := res.Stats.Total
	strata := s.strata
	if n := len(strata); strata[n-1].instr == 0 {
		strata = strata[:n-1]
	}
	width := int64(s.sc.Width)
	cover := make([]float64, len(strata))
	for k := range strata {
		end := total
		if k+1 < len(strata) {
			end = strata[k+1].startUnit * width
		}
		cover[k] = float64(end - strata[k].startUnit*width)
	}
	scaled := func(cell func(*stratum) int64) int64 {
		var v float64
		for k := range strata {
			v += float64(cell(&strata[k])) * cover[k] / float64(strata[k].instr)
		}
		return int64(math.Round(v))
	}

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
	est.IssueActiveCycles = scaled(func(st *stratum) int64 { return st.active })
	cycles := est.IssueActiveCycles
	for sub := 0; sub < 3; sub++ {
		for c := 0; c < NumStallCauses; c++ {
			v := scaled(func(st *stratum) int64 { return st.stalls[sub][c] })
			est.StallBySub[sub][c] = v
			cycles += v
		}
	}
	est.Cycles = cycles
	est.IntIdleFPaBusy = scaled(func(st *stratum) int64 { return st.idle })
	est.FetchMispredictStalls = scaled(func(st *stratum) int64 { return st.fetchBr })
	// Each I-cache miss blocks fetch for the miss penalty less the probing
	// cycle, and the I-cache saw the whole stream, so this counter follows
	// from the miss count instead of the windows: the few cold misses a
	// program takes mostly fall between windows.
	est.FetchICacheStalls = p.icache.Misses * int64(max(p.cfg.ICacheMissPenalty-1, 0))
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

	ss := SampledStats{
		Stats:                est,
		DetailedInstructions: s.detailed,
		FinalPeriod:          int(strata[len(strata)-1].period),
	}
	// The stratified variance of the cycle estimate Σ covered·meanCPI.
	var variance float64
	for k := range strata {
		st := &strata[k]
		ss.MeasuredInstructions += st.instr
		ss.MeasuredCycles += st.cycles
		ss.Windows += st.windows
		variance += cover[k] * cover[k] * st.cpiVar() / float64(st.windows)
	}
	ss.SampledFraction = float64(ss.MeasuredInstructions) / float64(total)
	if cycles > 0 {
		ss.RelCI = 3 * math.Sqrt(variance) / float64(cycles)
	}
	return ss
}

// splitmix64 is the standard 64-bit mix, used to derive the sampling phase
// from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
