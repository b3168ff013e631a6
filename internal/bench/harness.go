package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/interp"
	"fpint/internal/ir"
	"fpint/internal/isa"
	"fpint/internal/obs/hostmetrics"
	"fpint/internal/sim"
	"fpint/internal/uarch"
)

// Measurement is the outcome of running one workload under one scheme on
// one machine configuration.
type Measurement struct {
	Workload string
	Scheme   codegen.Scheme
	Config   string

	Ret                int64
	DynInstrs          int64
	OffloadFrac        float64 // fraction of dynamic instructions executed in FPa
	Copies             int64
	Dups               int64
	Loads              int64
	Stores             int64
	Cycles             int64
	IPC                float64
	IntIdleFPaBusyFrac float64

	// IssueActiveCycles plus the per-cause stall cycles in Stalls sum to
	// Cycles (the uarch top-down accounting invariant).
	IssueActiveCycles int64
	// Stalls maps stall-cause name → cycles, summed over subsystems.
	Stalls map[string]int64
	// StallsBySub maps "<subsystem>.<cause>" → cycles.
	StallsBySub map[string]int64

	// Faults and FaultRecoveryCycles count the transient faults an armed
	// fault plan injected and the cycles spent recovering from them.
	Faults              int64
	FaultRecoveryCycles int64

	// Host is the Go-level cost of the timing-model run that produced this
	// measurement (wall time, allocations, GC). It is nondeterministic and
	// never serialized into reports — Suite.Record, behind fpistat record,
	// reads it explicitly.
	Host *hostmetrics.Sample

	// Sampled is non-nil when the measurement came from the sampled-timing
	// fast mode (Suite.SetFast): Cycles and the stall ledger are then
	// bounded-error estimates, not exact counts.
	Sampled *SampledInfo
}

// SampledInfo is the fast-mode provenance of a measurement.
type SampledInfo struct {
	SampledFraction float64
	FinalPeriod     int
	RelCI           float64
	Exact           bool
}

// FastSummary aggregates the SampledInfo of every fast-mode measurement a
// Suite has made: the run count, the largest final sampling period, and
// the widest relative confidence half-width.
type FastSummary struct {
	Runs           int
	MaxFinalPeriod int
	MaxRelCI       float64
}

// Suite compiles and runs workloads, caching frontend results (the IR, the
// self-profile and the interpreter reference) per source text so repeated
// measurements stay cheap. It is safe for concurrent use once SetFast, if
// called, has returned.
type Suite struct {
	mu      sync.Mutex
	front   map[string]*frontRes
	fast    *uarch.SampleConfig
	fastSum FastSummary
}

// frontRes is one frontend's output. ref is the frontend's self-profile
// run: its Profile feeds the cost model and its Ret and Output are the
// interpreter reference every timed run is checked against. Compiles only
// read mod, so concurrent compiles of one source share it.
type frontRes struct {
	mod *ir.Module
	ref *interp.Result
}

// NewSuite returns an empty measurement cache.
func NewSuite() *Suite {
	return &Suite{front: make(map[string]*frontRes)}
}

// FastSummary reports the fast-mode measurements made so far.
func (s *Suite) FastSummary() FastSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fastSum
}

// SetFast switches every subsequent timed run to the sampled-timing fast
// mode (uarch.RunSampled) with the given sampling parameters. Cycle counts
// become bounded-error estimates — figures computed from them are sweeps,
// not gate material — and each Measurement carries its Sampled provenance.
func (s *Suite) SetFast(sc uarch.SampleConfig) {
	s.fast = &sc
}

// frontend returns the cached frontend result for the workload's source.
// The cache is keyed by source text, not name: two programs may share a
// name (x.c in two directories) and must not share a module.
func (s *Suite) frontend(w *Workload) (*frontRes, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fr, ok := s.front[w.Src]; ok {
		return fr, nil
	}
	mod, ref, err := codegen.FrontendPipelineBudgeted(w.Src, nil, codegen.FrontendBudget{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	fr := &frontRes{mod: mod, ref: ref}
	s.front[w.Src] = fr
	return fr, nil
}

// check compares a functional result with the interpreter reference: the
// value main returned and the printed output must both match.
func (fr *frontRes) check(out *sim.Result) error {
	if out.Ret != fr.ref.Ret {
		return fmt.Errorf("functional mismatch: got %d want %d", out.Ret, fr.ref.Ret)
	}
	if out.Output != fr.ref.Output {
		return fmt.Errorf("functional mismatch: output differs from the interpreter's (%d vs %d bytes)",
			len(out.Output), len(fr.ref.Output))
	}
	return nil
}

// Compile builds the workload under the scheme with the analyses off.
func (s *Suite) Compile(w *Workload, scheme codegen.Scheme) (*codegen.Result, error) {
	return s.compile(w, codegen.Options{Scheme: scheme})
}

// compile builds the workload with opts and the cached self-profile.
func (s *Suite) compile(w *Workload, opts codegen.Options) (*codegen.Result, error) {
	fr, err := s.frontend(w)
	if err != nil {
		return nil, err
	}
	opts.Profile = fr.ref.Profile
	res, err := codegen.Compile(fr.mod, opts)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", w.Name, opts.Scheme, err)
	}
	return res, nil
}

// Measure runs the workload under scheme on cfg and cross-checks the
// functional result against the IR interpreter reference. It simulates on
// every call; the reports that quote the same runs read them from a Runs
// table instead.
func (s *Suite) Measure(w *Workload, scheme codegen.Scheme, cfg uarch.Config) (*Measurement, error) {
	res, err := s.Compile(w, scheme)
	if err != nil {
		return nil, err
	}
	m, _, err := s.run(w, scheme, res, cfg, nil)
	return m, err
}

// run is the package's one timed run: it builds a machine for cfg, runs
// the compiled workload detailed or sampled as the Suite's mode says,
// checks the functional result against the interpreter reference, and
// projects the timing statistics into a Measurement. arm, when non-nil,
// arms probes on the machine before the run; the machine is returned so
// the caller can read what they recorded.
func (s *Suite) run(w *Workload, scheme codegen.Scheme, res *codegen.Result, cfg uarch.Config, arm func(*uarch.Machine)) (*Measurement, *uarch.Machine, error) {
	fr, err := s.frontend(w)
	if err != nil {
		return nil, nil, err
	}
	var mach *uarch.Machine
	var out *sim.Result
	var st uarch.Stats
	var sampled *SampledInfo
	// The machine is built inside the host sample, as uarch.Run does, so
	// host blocks stay comparable with the recorded baseline.
	hostSample := hostmetrics.Measure(func() {
		mach = uarch.NewMachine(cfg)
		if arm != nil {
			arm(mach)
		}
		if s.fast == nil {
			out, st, err = mach.Run(res.Prog)
			return
		}
		var sst uarch.SampledStats
		out, sst, err = mach.RunSampled(res.Prog, *s.fast)
		st = sst.Stats
		sampled = &SampledInfo{
			SampledFraction: sst.SampledFraction,
			FinalPeriod:     sst.FinalPeriod,
			RelCI:           sst.RelCI,
			Exact:           sst.Exact,
		}
	})
	if err == nil {
		err = fr.check(out)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s/%s/%s: %w", w.Name, scheme, cfg.Name, err)
	}
	if sampled != nil {
		s.mu.Lock()
		s.fastSum.Runs++
		s.fastSum.MaxFinalPeriod = max(s.fastSum.MaxFinalPeriod, sampled.FinalPeriod)
		s.fastSum.MaxRelCI = max(s.fastSum.MaxRelCI, sampled.RelCI)
		s.mu.Unlock()
	}
	m := &Measurement{
		Workload:            w.Name,
		Scheme:              scheme,
		Config:              cfg.Name,
		Ret:                 out.Ret,
		DynInstrs:           out.Stats.Total,
		OffloadFrac:         out.Stats.OffloadFraction(),
		Copies:              out.Stats.Copies,
		Dups:                out.Stats.Dups,
		Loads:               out.Stats.Loads,
		Stores:              out.Stats.Stores,
		Cycles:              st.Cycles,
		IPC:                 st.IPC(),
		Faults:              st.FaultsInjected,
		FaultRecoveryCycles: st.FaultRecoveryCycles,
	}
	if st.Cycles > 0 {
		m.IntIdleFPaBusyFrac = float64(st.IntIdleFPaBusy) / float64(st.Cycles)
	}
	m.Host = &hostSample
	m.Sampled = sampled
	m.IssueActiveCycles = st.IssueActiveCycles
	m.Stalls = make(map[string]int64)
	m.StallsBySub = make(map[string]int64)
	for sub := 0; sub < 3; sub++ {
		for cause := 0; cause < uarch.NumStallCauses; cause++ {
			n := st.StallBySub[sub][cause]
			if n == 0 {
				continue
			}
			name := uarch.StallCause(cause).String()
			m.Stalls[name] += n
			m.StallsBySub[isa.Subsystem(sub).String()+"."+name] += n
		}
	}
	return m, mach, nil
}

// SpeedupRow is one bar of Figures 9/10.
type SpeedupRow struct {
	Workload    string
	BasicPct    float64 // speedup % of the basic scheme over conventional
	AdvancedPct float64
	BaseCycles  int64
	BasicCycles int64
	AdvCycles   int64
}

// FigureSpeedups computes speedups (Figures 9 and 10) for the given
// workloads on cfg, measuring each under figureSchemes.
func (r *Runs) FigureSpeedups(ws []Workload, cfg uarch.Config) ([]SpeedupRow, error) {
	var rows []SpeedupRow
	for i := range ws {
		w := &ws[i]
		var cycles [len(figureSchemes)]int64
		for j, sch := range figureSchemes {
			m, err := r.Measure(w, sch, cfg)
			if err != nil {
				return nil, err
			}
			cycles[j] = m.Cycles
		}
		base, basic, adv := cycles[0], cycles[1], cycles[2]
		rows = append(rows, SpeedupRow{
			Workload:    w.Name,
			BasicPct:    100 * (float64(base)/float64(basic) - 1),
			AdvancedPct: 100 * (float64(base)/float64(adv) - 1),
			BaseCycles:  base,
			BasicCycles: basic,
			AdvCycles:   adv,
		})
	}
	return rows, nil
}

// PartitionRow is one pair of bars of Figure 8.
type PartitionRow struct {
	Workload    string
	BasicPct    float64 // % of dynamic instructions executed in FPa
	AdvancedPct float64
}

// FigurePartitionSizes computes Figure 8 (the size of the FPa partition as
// a percentage of total dynamic instructions) for the given workloads.
// Offload percentages are a property of the binary, so any machine
// configuration gives the same numbers; the functional simulator suffices.
func (s *Suite) FigurePartitionSizes(ws []Workload) ([]PartitionRow, error) {
	var rows []PartitionRow
	for i := range ws {
		w := &ws[i]
		basic, _, err := s.runFunctional(w, codegen.SchemeBasic)
		if err != nil {
			return nil, err
		}
		adv, _, err := s.runFunctional(w, codegen.SchemeAdvanced)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PartitionRow{
			Workload:    w.Name,
			BasicPct:    100 * basic.Stats.OffloadFraction(),
			AdvancedPct: 100 * adv.Stats.OffloadFraction(),
		})
	}
	return rows, nil
}

// runFunctional compiles the workload under scheme and runs it on the
// functional simulator alone, checking the result against the interpreter
// reference. It hands back the compiled program with the result.
func (s *Suite) runFunctional(w *Workload, scheme codegen.Scheme) (*sim.Result, *codegen.Result, error) {
	fr, err := s.frontend(w)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.Compile(w, scheme)
	if err != nil {
		return nil, nil, err
	}
	out, err := sim.New(res.Prog).Run()
	if err == nil {
		err = fr.check(out)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s/%s: %w", w.Name, scheme, err)
	}
	return out, res, nil
}

// OverheadRow quantifies §7.2's overhead discussion for one workload.
type OverheadRow struct {
	Workload        string
	DynGrowthPct    float64 // increase in dynamic instructions, advanced vs base
	CopyPct         float64 // copies as % of baseline dynamic instructions
	DupPct          float64
	StaticGrowthPct float64
}

// Overheads measures the §7.2 numbers for the given workloads.
func (s *Suite) Overheads(ws []Workload) ([]OverheadRow, error) {
	var rows []OverheadRow
	for i := range ws {
		w := &ws[i]
		base, baseRes, err := s.runFunctional(w, codegen.SchemeNone)
		if err != nil {
			return nil, err
		}
		adv, advRes, err := s.runFunctional(w, codegen.SchemeAdvanced)
		if err != nil {
			return nil, err
		}
		baseStatic, advStatic := 0, 0
		for _, st := range baseRes.Stats {
			baseStatic += st.StaticInsts
		}
		for _, st := range advRes.Stats {
			advStatic += st.StaticInsts
		}
		rows = append(rows, OverheadRow{
			Workload:        w.Name,
			DynGrowthPct:    100 * (float64(adv.Stats.Total)/float64(base.Stats.Total) - 1),
			CopyPct:         100 * float64(adv.Stats.Copies) / float64(base.Stats.Total),
			DupPct:          100 * float64(adv.Stats.Dups) / float64(base.Stats.Total),
			StaticGrowthPct: 100 * (float64(advStatic)/float64(baseStatic) - 1),
		})
	}
	return rows, nil
}

// LoadChangeRow quantifies the §6.6 register-pressure effect: the change in
// dynamic loads+stores between the baseline and the advanced scheme
// (spill/reload and save/restore differences).
type LoadChangeRow struct {
	Workload     string
	LoadDeltaPct float64
}

// LoadChanges measures the §6.6 numbers.
func (s *Suite) LoadChanges(ws []Workload) ([]LoadChangeRow, error) {
	var rows []LoadChangeRow
	for i := range ws {
		w := &ws[i]
		base, _, err := s.runFunctional(w, codegen.SchemeNone)
		if err != nil {
			return nil, err
		}
		adv, _, err := s.runFunctional(w, codegen.SchemeAdvanced)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LoadChangeRow{
			Workload:     w.Name,
			LoadDeltaPct: 100 * (float64(adv.Stats.Loads)/float64(base.Stats.Loads) - 1),
		})
	}
	return rows, nil
}

// SliceRow reports computational-slice weights (§3/§4): the LdSt slice
// should be near 50% of dynamic instructions for integer codes.
type SliceRow struct {
	Workload    string
	LdStPct     float64
	BranchPct   float64
	StoreValPct float64
}

// SliceStats computes profile-weighted slice sizes across each workload's
// functions.
func (s *Suite) SliceStats(ws []Workload) ([]SliceRow, error) {
	var rows []SliceRow
	for i := range ws {
		w := &ws[i]
		fr, err := s.frontend(w)
		if err != nil {
			return nil, err
		}
		var total, ldst, br, sv float64
		for _, fn := range fr.mod.Funcs {
			g := core.BuildGraph(fn, fr.ref.Profile)
			st := g.ComputeSliceStats()
			total += st.TotalWeight
			ldst += st.LdStWeight
			br += st.BranchWeight
			sv += st.StoreValWeight
		}
		if total == 0 {
			total = 1
		}
		rows = append(rows, SliceRow{
			Workload:    w.Name,
			LdStPct:     100 * ldst / total,
			BranchPct:   100 * br / total,
			StoreValPct: 100 * sv / total,
		})
	}
	return rows, nil
}

// ImbalanceRow quantifies §7.3's load-imbalance discussion for one
// workload under the advanced scheme.
type ImbalanceRow struct {
	Workload          string
	OffloadPct        float64
	IntIdleFPaBusyPct float64
}

// Imbalance measures the §7.3 numbers for the given workloads on cfg.
func (r *Runs) Imbalance(ws []Workload, cfg uarch.Config) ([]ImbalanceRow, error) {
	var rows []ImbalanceRow
	for i := range ws {
		w := &ws[i]
		m, err := r.Measure(w, codegen.SchemeAdvanced, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ImbalanceRow{
			Workload:          w.Name,
			OffloadPct:        100 * m.OffloadFrac,
			IntIdleFPaBusyPct: 100 * m.IntIdleFPaBusyFrac,
		})
	}
	return rows, nil
}

// IntWorkloads returns the SPECint95 stand-ins.
func IntWorkloads() []Workload {
	var out []Workload
	for _, w := range Workloads() {
		if w.Class == "int" {
			out = append(out, w)
		}
	}
	return out
}

// FpWorkloads returns the floating-point programs (§7.5).
func FpWorkloads() []Workload {
	var out []Workload
	for _, w := range Workloads() {
		if w.Class == "fp" {
			out = append(out, w)
		}
	}
	return out
}

// FormatTable renders rows of columns with aligned widths.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

// SortedFuncNames returns a deterministic ordering of a stats map's keys.
func SortedFuncNames(m map[string]*codegen.FuncStat) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
