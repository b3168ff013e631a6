package difftest

import (
	"errors"
	"fmt"
	"math"

	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/faultinject"
	"fpint/internal/interp"
	"fpint/internal/ir"
	"fpint/internal/irgen"
	"fpint/internal/isa"
	"fpint/internal/lang"
	"fpint/internal/opt"
	"fpint/internal/sim"
	"fpint/internal/trap"
	"fpint/internal/uarch"
)

// ErrFrontend wraps parse/check/lower/verify failures: the program never
// reached an execution engine, so there is nothing to cross-check. For
// generator-produced programs the sweep still counts this as a failure
// (the generator promises well-typed output), but the reducer must keep
// the two failure classes apart.
var ErrFrontend = errors.New("difftest: frontend rejected program")

// ErrSkip marks a program the oracle cannot judge: the reference
// interpreter exhausted its step budget, so no ground truth exists.
var ErrSkip = errors.New("difftest: reference run exceeded step budget")

// Mismatch is an oracle failure: two engines disagreed, or a metamorphic
// invariant broke.
type Mismatch struct {
	Stage  string // "compile", "trap", "output", "partition", "audit", "timing", "profit", "fault", "fast"
	Scheme string // scheme case name ("" for cross-scheme checks)
	Config string // uarch config name ("" outside the timing model)
	Detail string
}

// Error implements error.
func (m *Mismatch) Error() string {
	s := "difftest mismatch [" + m.Stage
	if m.Scheme != "" {
		s += " " + m.Scheme
	}
	if m.Config != "" {
		s += " " + m.Config
	}
	return s + "]: " + m.Detail
}

// Options configures the oracle.
type Options struct {
	// Cost overrides the §6.1 cost-model constants (zero → paper defaults).
	Cost core.CostParams
	// Timing additionally drives the cycle-level model on 4-way and 8-way
	// configurations for the basic/advanced/balanced schemes and checks
	// the stall-accounting invariants.
	Timing bool
	// Interproc adds the advanced+InterprocFPArgs scheme case.
	Interproc bool
	// Optimal adds the exact-oracle scheme case: the branch-and-bound
	// partition must be bit-exact with the reference interpreter, pass the
	// static verifier, and its accepted profit must dominate the advanced
	// scheme's (optimal ≥ advanced ≥ basic).
	Optimal bool
	// Analysis adds the basic+analysis and advanced+analysis scheme cases:
	// partitioning sharpened by the alias/value-range address oracle. The
	// runs must still match the reference interpreter exactly (unpinning an
	// address is only legal when it cannot change what the access touches),
	// and the advanced+analysis profit must dominate basic+analysis.
	Analysis bool
	// CheckProfit enforces the cross-scheme cost-model dominance check:
	// per function, the advanced scheme's accepted audit profit must be at
	// least the basic scheme's.
	CheckProfit bool
	// StepLimit bounds the reference interpreter (IR steps); the
	// functional simulator gets 8× (machine code expands IR ops). Zero
	// means the 2M default.
	StepLimit int64
	// MaxFPaFraction is the balanced scheme's cap (zero → 0.3).
	MaxFPaFraction float64
	// PartitionHook is forwarded to codegen for fault injection.
	PartitionHook func(fn string, part *core.Partition)
	// Faults, when non-nil, additionally runs each timed scheme case under
	// seeded transient-fault injection and asserts that every detected-and-
	// recovered run still produces architecturally correct output with a
	// closed stall ledger and cycle profile. Requires Timing.
	Faults *faultinject.Config
	// FastTiming additionally runs each timed scheme case through the
	// sampled-timing fast mode (uarch.RunSampled with default sampling) on
	// both configurations and asserts fast-mode fidelity: functional output
	// bit-identical to the reference, exact instruction counts, and a
	// closed extrapolated stall ledger. Requires Timing.
	FastTiming bool
	// FastHook, when non-nil, is called with each fast-mode functional
	// result before the oracle compares it — the fast-mode analogue of
	// PartitionHook, used to plant a known divergence and demonstrate
	// end-to-end that the oracle catches fast-mode bugs.
	FastHook func(cfgName string, res *sim.Result)
}

// DefaultOptions enables every check.
func DefaultOptions() Options {
	return Options{Timing: true, Interproc: true, CheckProfit: true, Analysis: true, Optimal: true}
}

// Frontend runs parse → check → lower → optimize → verify without the
// profile pass (unlike codegen.FrontendPipeline, it accepts programs that
// trap at run time, which the oracle still needs to cross-check).
func Frontend(src string) (*ir.Module, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%w: parse: %v", ErrFrontend, err)
	}
	if err := lang.Check(prog); err != nil {
		return nil, fmt.Errorf("%w: check: %v", ErrFrontend, err)
	}
	mod, err := irgen.Lower(prog)
	if err != nil {
		return nil, fmt.Errorf("%w: lower: %v", ErrFrontend, err)
	}
	opt.Optimize(mod)
	for _, fn := range mod.Funcs {
		if err := fn.Verify(); err != nil {
			return nil, fmt.Errorf("%w: verify %s: %v", ErrFrontend, fn.Name, err)
		}
	}
	return mod, nil
}

// schemeCase is one column of the differential matrix.
type schemeCase struct {
	name string
	opts codegen.Options
	time bool // also drive the cycle-level model
}

func (o *Options) cases() []schemeCase {
	frac := o.MaxFPaFraction
	if frac == 0 {
		frac = 0.3
	}
	cs := []schemeCase{
		{name: "none", opts: codegen.Options{Scheme: codegen.SchemeNone}},
		{name: "basic", opts: codegen.Options{Scheme: codegen.SchemeBasic}, time: true},
		{name: "advanced", opts: codegen.Options{Scheme: codegen.SchemeAdvanced, Cost: o.Cost}, time: true},
		{name: "balanced", opts: codegen.Options{Scheme: codegen.SchemeBalanced, Cost: o.Cost, MaxFPaFraction: frac}, time: true},
	}
	if o.Optimal {
		cs = append(cs, schemeCase{
			name: "optimal",
			opts: codegen.Options{Scheme: codegen.SchemeOptimal, Cost: o.Cost},
			time: true,
		})
	}
	if o.Interproc {
		cs = append(cs, schemeCase{
			name: "advanced+interproc",
			opts: codegen.Options{Scheme: codegen.SchemeAdvanced, Cost: o.Cost, InterprocFPArgs: true},
		})
	}
	if o.Analysis {
		cs = append(cs,
			schemeCase{name: "basic+analysis", opts: codegen.Options{Scheme: codegen.SchemeBasic, Analysis: true}, time: true},
			schemeCase{name: "advanced+analysis", opts: codegen.Options{Scheme: codegen.SchemeAdvanced, Cost: o.Cost, Analysis: true}},
		)
	}
	return cs
}

// Check runs src through the reference interpreter and through
// compile→simulate under every scheme case, returning nil when all
// executions agree and every invariant holds. The error is ErrFrontend/
// ErrSkip (wrapped) when the program cannot be judged, or a *Mismatch.
func Check(src string, o Options) error {
	limit := o.StepLimit
	if limit <= 0 {
		limit = 2_000_000
	}
	mod, err := Frontend(src)
	if err != nil {
		return err
	}

	// Reference run. A trap is a legitimate outcome the compiled code must
	// reproduce; a step-limit means no ground truth.
	im := interp.New(mod)
	im.SetStepLimit(limit)
	ref, rerr := im.Run()
	refKind := trap.KindOf(rerr)
	if refKind == trap.KindStepLimit {
		return ErrSkip
	}
	if rerr != nil && refKind == trap.KindNone {
		return &Mismatch{Stage: "interp", Detail: fmt.Sprintf("non-trap interpreter error: %v", rerr)}
	}
	var prof *interp.Profile
	if rerr == nil {
		prof = ref.Profile
	}

	audits := map[string]map[string]*core.Audit{} // case → fn → audit
	for _, c := range o.cases() {
		opts := c.opts
		opts.Profile = prof
		opts.PartitionHook = o.PartitionHook
		res, err := codegen.Compile(mod, opts)
		if err != nil {
			return &Mismatch{Stage: "compile", Scheme: c.name, Detail: err.Error()}
		}
		if err := checkPartitions(c, res, o.PartitionHook != nil); err != nil {
			return err
		}
		audits[c.name] = collectAudits(res)

		// Functional run first: it is cheap and bounded, so a diverging
		// miscompile cannot strand the (slower, loosely-bounded) timing
		// model in an endless loop.
		m := sim.New(res.Prog)
		m.SetStepLimit(limit * 8)
		out, serr := m.Run()
		if err := compareRun(c.name, "", ref, refKind, out, serr); err != nil {
			return err
		}
		if serr == nil {
			if err := checkDynamicStats(c, res, &out.Stats); err != nil {
				return err
			}
		}
		if o.Timing && c.time && serr == nil {
			for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
				tout, st, terr := uarch.Run(res.Prog, cfg)
				if err := compareRun(c.name, cfg.Name, ref, refKind, tout, terr); err != nil {
					return err
				}
				if err := checkTiming(c.name, cfg.Name, &st, tout); err != nil {
					return err
				}
				if o.Faults != nil {
					if err := checkInjected(c.name, cfg, res.Prog, *o.Faults, ref, refKind); err != nil {
						return err
					}
				}
				if o.FastTiming {
					if err := checkFast(c.name, cfg, res.Prog, ref, refKind, o.FastHook); err != nil {
						return err
					}
				}
			}
		}
	}

	if o.CheckProfit && o.PartitionHook == nil {
		if err := checkProfitDominance("basic", audits["basic"], "advanced", audits["advanced"]); err != nil {
			return err
		}
		if o.Optimal {
			if err := checkProfitDominance("advanced", audits["advanced"], "optimal", audits["optimal"]); err != nil {
				return err
			}
		}
		if o.Analysis {
			if err := checkProfitDominance("basic+analysis", audits["basic+analysis"], "advanced+analysis", audits["advanced+analysis"]); err != nil {
				return err
			}
		}
	}
	return nil
}

// compareRun checks one engine run against the reference outcome.
func compareRun(scheme, config string, ref *interp.Result, refKind trap.Kind, out *sim.Result, serr error) error {
	if refKind != trap.KindNone {
		k := trap.KindOf(serr)
		if k != refKind {
			return &Mismatch{Stage: "trap", Scheme: scheme, Config: config,
				Detail: fmt.Sprintf("interp trapped with %v, sim result: kind=%v err=%v", refKind, k, serr)}
		}
		return nil
	}
	if serr != nil {
		return &Mismatch{Stage: "trap", Scheme: scheme, Config: config,
			Detail: fmt.Sprintf("interp succeeded but sim failed: %v", serr)}
	}
	if out.Ret != ref.Ret {
		return &Mismatch{Stage: "output", Scheme: scheme, Config: config,
			Detail: fmt.Sprintf("exit value %d, interp %d", out.Ret, ref.Ret)}
	}
	if out.Output != ref.Output {
		return &Mismatch{Stage: "output", Scheme: scheme, Config: config,
			Detail: fmt.Sprintf("output %q, interp %q", out.Output, ref.Output)}
	}
	return nil
}

// checkPartitions verifies the static per-function partition and its audit
// trail. Audit checks are skipped under fault injection (injected bugs
// falsify them by design).
func checkPartitions(c schemeCase, res *codegen.Result, injected bool) error {
	for fn, p := range res.Partitions {
		if p == nil {
			if c.opts.Scheme != codegen.SchemeNone {
				return &Mismatch{Stage: "partition", Scheme: c.name,
					Detail: fmt.Sprintf("%s: missing partition", fn)}
			}
			continue
		}
		if injected {
			continue
		}
		if err := p.Validate(); err != nil {
			return &Mismatch{Stage: "partition", Scheme: c.name,
				Detail: fmt.Sprintf("%s: %v", fn, err)}
		}
		if err := core.VerifyPartition(p); err != nil {
			return &Mismatch{Stage: "partition", Scheme: c.name,
				Detail: fmt.Sprintf("%s: %v", fn, err)}
		}
		st := p.ComputeStats()
		if c.opts.Scheme == codegen.SchemeBasic && (st.Copies != 0 || st.Dups != 0 || st.OutCopies != 0) {
			return &Mismatch{Stage: "partition", Scheme: c.name,
				Detail: fmt.Sprintf("%s: basic scheme introduced transfers (%d copies, %d dups, %d out-copies)",
					fn, st.Copies, st.Dups, st.OutCopies)}
		}
		if err := checkAudit(c, fn, p, st); err != nil {
			return err
		}
	}
	return nil
}

func checkAudit(c schemeCase, fn string, p *core.Partition, st core.Stats) error {
	a := p.Audit
	if a == nil {
		return &Mismatch{Stage: "audit", Scheme: c.name,
			Detail: fmt.Sprintf("%s: partition carries no audit trail", fn)}
	}
	accepted := 0
	for _, d := range a.Components {
		if d.Accepted {
			accepted++
			if d.Profit < 0 {
				return &Mismatch{Stage: "audit", Scheme: c.name,
					Detail: fmt.Sprintf("%s comp %d: accepted with negative profit %g", fn, d.Component, d.Profit)}
			}
		}
		if a.Scheme == "advanced" {
			if d.Accepted != (d.Profit >= 0) {
				return &Mismatch{Stage: "audit", Scheme: c.name,
					Detail: fmt.Sprintf("%s comp %d: verdict %v inconsistent with profit %g", fn, d.Component, d.Accepted, d.Profit)}
			}
			if d.Profit != d.Benefit-d.Overhead {
				return &Mismatch{Stage: "audit", Scheme: c.name,
					Detail: fmt.Sprintf("%s comp %d: profit %g != benefit %g - overhead %g", fn, d.Component, d.Profit, d.Benefit, d.Overhead)}
			}
		}
		if a.Scheme == "basic" && d.Overhead != 0 {
			return &Mismatch{Stage: "audit", Scheme: c.name,
				Detail: fmt.Sprintf("%s comp %d: basic scheme reports overhead %g", fn, d.Component, d.Overhead)}
		}
	}
	// The audit trail must explain the assignment: offloaded nodes exist
	// iff some component was accepted.
	if st.FPaNodes > 0 && accepted == 0 {
		return &Mismatch{Stage: "audit", Scheme: c.name,
			Detail: fmt.Sprintf("%s: %d FPa nodes but no accepted component", fn, st.FPaNodes)}
	}
	if accepted == 0 && (st.Copies != 0 || st.Dups != 0) {
		return &Mismatch{Stage: "audit", Scheme: c.name,
			Detail: fmt.Sprintf("%s: transfers without any accepted component", fn)}
	}
	return nil
}

// checkDynamicStats ties the functional simulator's dynamic counters back
// to the static partition.
func checkDynamicStats(c schemeCase, res *codegen.Result, st *sim.Stats) error {
	f := st.OffloadFraction()
	if f < 0 || f > 1 || math.IsNaN(f) {
		return &Mismatch{Stage: "output", Scheme: c.name,
			Detail: fmt.Sprintf("offload fraction %g outside [0,1]", f)}
	}
	var fpaNodes, dupNodes int
	for _, p := range res.Partitions {
		if p == nil {
			continue
		}
		ps := p.ComputeStats()
		fpaNodes += ps.FPaNodes
		dupNodes += ps.Dups
	}
	if c.opts.Scheme == codegen.SchemeNone {
		if f != 0 || st.Copies != 0 || st.Dups != 0 {
			return &Mismatch{Stage: "output", Scheme: c.name,
				Detail: fmt.Sprintf("conventional compilation ran FPa work (offload %g, %d copies, %d dups)", f, st.Copies, st.Dups)}
		}
	}
	if st.Copies > 0 && fpaNodes == 0 {
		return &Mismatch{Stage: "output", Scheme: c.name,
			Detail: fmt.Sprintf("%d dynamic copies but empty FPa partition", st.Copies)}
	}
	if st.Dups > 0 && dupNodes == 0 {
		return &Mismatch{Stage: "output", Scheme: c.name,
			Detail: fmt.Sprintf("%d dynamic dups but no duplicated nodes in any partition", st.Dups)}
	}
	return nil
}

// checkInjected drives one fault-injected timing run and asserts the
// detection/recovery discipline: the architectural output is unchanged (a
// detected-and-recovered fault costs cycles, never correctness), the stall
// ledger and per-PC cycle profile still close, and the fault trace agrees
// with the stats counters.
func checkInjected(scheme string, cfg uarch.Config, prog *isa.Program, fc faultinject.Config, ref *interp.Result, refKind trap.Kind) error {
	plan := faultinject.NewPlan(fc)
	m := uarch.NewMachine(cfg)
	m.SetFaultPlan(plan)
	m.SetProfiling(true)
	out, st, rerr := m.Run(prog)
	config := cfg.Name + "+faults"
	if err := compareRun(scheme, config, ref, refKind, out, rerr); err != nil {
		return err
	}
	if rerr != nil {
		return nil // trap faithfully reproduced; no timing invariants past it
	}
	if err := checkTiming(scheme, config, &st, out); err != nil {
		return err
	}
	if got := m.Profile().TotalAttributed(); got != st.Cycles {
		return &Mismatch{Stage: "fault", Scheme: scheme, Config: config,
			Detail: fmt.Sprintf("cycle profile attributes %d of %d cycles under injection", got, st.Cycles)}
	}
	trace := plan.Trace()
	if int64(len(trace)) != st.FaultsInjected {
		return &Mismatch{Stage: "fault", Scheme: scheme, Config: config,
			Detail: fmt.Sprintf("trace records %d faults, stats %d", len(trace), st.FaultsInjected)}
	}
	var rec int64
	for _, f := range trace {
		rec += f.Recovery
	}
	if rec != st.FaultRecoveryCycles {
		return &Mismatch{Stage: "fault", Scheme: scheme, Config: config,
			Detail: fmt.Sprintf("trace recovery cycles %d, stats %d", rec, st.FaultRecoveryCycles)}
	}
	return nil
}

// checkFast drives one sampled-timing fast-mode run and asserts its
// fidelity contract: the functional result is bit-identical to the
// reference (fast mode shares the functional engine, so any divergence is
// a bug), the instruction count is exact, and the extrapolated stall
// ledger closes. Any violation is a stage-"fast" mismatch.
func checkFast(scheme string, cfg uarch.Config, prog *isa.Program, ref *interp.Result, refKind trap.Kind, hook func(string, *sim.Result)) error {
	fout, fst, ferr := uarch.RunSampled(prog, cfg, uarch.DefaultSampleConfig())
	config := cfg.Name + "+fast"
	if ferr == nil && hook != nil {
		hook(cfg.Name, fout)
	}
	if err := compareRun(scheme, config, ref, refKind, fout, ferr); err != nil {
		var mm *Mismatch
		if errors.As(err, &mm) {
			mm.Stage = "fast"
		}
		return err
	}
	if ferr != nil {
		return nil // trap faithfully reproduced; no timing estimate past it
	}
	if fst.Cycles <= 0 {
		return &Mismatch{Stage: "fast", Scheme: scheme, Config: config, Detail: "zero estimated cycles"}
	}
	if fst.Instructions != fout.Stats.Total {
		return &Mismatch{Stage: "fast", Scheme: scheme, Config: config,
			Detail: fmt.Sprintf("estimate carries %d instructions, simulator %d", fst.Instructions, fout.Stats.Total)}
	}
	if e := fst.StallAccountingError(); e != 0 {
		return &Mismatch{Stage: "fast", Scheme: scheme, Config: config,
			Detail: fmt.Sprintf("extrapolated stall accounting open by %d cycles", e)}
	}
	return nil
}

// checkTiming verifies the cycle-level model's closed accounting.
func checkTiming(scheme, config string, st *uarch.Stats, out *sim.Result) error {
	if st.Cycles <= 0 {
		return &Mismatch{Stage: "timing", Scheme: scheme, Config: config, Detail: "zero cycles"}
	}
	if st.Instructions != out.Stats.Total {
		return &Mismatch{Stage: "timing", Scheme: scheme, Config: config,
			Detail: fmt.Sprintf("pipeline committed %d instructions, simulator %d", st.Instructions, out.Stats.Total)}
	}
	if e := st.StallAccountingError(); e != 0 {
		return &Mismatch{Stage: "timing", Scheme: scheme, Config: config,
			Detail: fmt.Sprintf("stall accounting open by %d cycles", e)}
	}
	if st.IssueActiveCycles > st.Cycles {
		return &Mismatch{Stage: "timing", Scheme: scheme, Config: config,
			Detail: fmt.Sprintf("issue-active cycles %d exceed total %d", st.IssueActiveCycles, st.Cycles)}
	}
	return nil
}

func collectAudits(res *codegen.Result) map[string]*core.Audit {
	out := map[string]*core.Audit{}
	for fn, p := range res.Partitions {
		if p != nil && p.Audit != nil {
			out[fn] = p.Audit
		}
	}
	return out
}

// checkProfitDominance enforces one link of the cost-model dominance chain
// optimal ≥ advanced ≥ basic: the stronger scheme (hi) explores a superset
// of the weaker scheme's (lo) legal assignments — advanced starts from
// everything offloadable and retreats only where unprofitable, where basic
// can only take transfer-free components; the exact oracle seeds its
// incumbent with the advanced result — so per function the stronger
// scheme's accepted audit profit must be at least the weaker's. A small
// epsilon absorbs float summation order.
func checkProfitDominance(loName string, lo map[string]*core.Audit, hiName string, hi map[string]*core.Audit) error {
	if lo == nil || hi == nil {
		return nil
	}
	for fn, la := range lo {
		ha := hi[fn]
		if ha == nil {
			continue
		}
		lp := acceptedProfit(la)
		hp := acceptedProfit(ha)
		if hp+1e-6+1e-9*math.Abs(lp) < lp {
			return &Mismatch{Stage: "profit", Scheme: hiName,
				Detail: fmt.Sprintf("%s: %s accepted profit %g below %s %g", fn, hiName, hp, loName, lp)}
		}
	}
	return nil
}

func acceptedProfit(a *core.Audit) float64 {
	var sum float64
	for _, d := range a.Components {
		if d.Accepted {
			sum += d.Profit
		}
	}
	return sum
}
