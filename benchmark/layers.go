package main

import (
	"fmt"
	"runtime"
	"time"

	"fpint/internal/analysis"
	"fpint/internal/codegen"
	"fpint/internal/interp"
	"fpint/internal/ir"
	"fpint/internal/irgen"
	"fpint/internal/isa"
	"fpint/internal/lang"
	"fpint/internal/obs"
	"fpint/internal/opt"
	"fpint/internal/sim"
	"fpint/internal/uarch"
)

// This file is the traced execution path: the same work the untraced
// workloads do through bench.Suite, codegen.FrontendPipeline and the
// daemon, done here by calling each module's exported entry point in the
// same order and timing every call from outside.

// counters are the per-layer work counts of a traced run, taken at the
// same call boundaries as the spans so that ratios are measured where the
// work happens.
type counters struct {
	srcBytes            int64
	optBefore, optAfter int64
	interpSteps         int64
	interpTime          time.Duration // profile and reference runs
	refRuns             int
	refTime             time.Duration

	compiles, fallbacks  int
	rdgNodes, unpins     int64
	oracleFuncs          int
	oracleDegradedFuncs  int
	oracleExpansions     int64
	staticInsts, spillOp int64

	simInstrs, simFPa int64
	simTime           time.Duration // functional runs and twins

	uarchRuns                   int
	uarchTime                   time.Duration // timing runs minus their functional twins
	cycles, stallCycles         int64
	uarchInstrs, measuredInstrs int64
	uarchAllocBytes             uint64
}

// passRows maps codegen's pass-log records to ledger rows.
var passRows = map[string]string{
	"partition": "core.partition",
	"select":    "codegen.select",
	"regalloc":  "codegen.regalloc",
}

// moduleInstrs counts a module's IR instructions.
func moduleInstrs(mod *ir.Module) int64 {
	var n int64
	for _, fn := range mod.Funcs {
		for _, b := range fn.Blocks {
			n += int64(len(b.Instrs))
		}
	}
	return n
}

// frontend is codegen.FrontendPipeline with a span per stage: parse, check,
// lower, optimize, verify, then the self-profile interpreter run.
func frontend(j *jobTrace, src string, c *counters) (*ir.Module, *interp.Profile, error) {
	c.srcBytes += int64(len(src))
	var prog *lang.Program
	var mod *ir.Module
	var err error
	if j.time("lang.parse", func() { prog, err = lang.Parse(src) }); err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	if j.time("lang.check", func() { err = lang.Check(prog) }); err != nil {
		return nil, nil, fmt.Errorf("check: %w", err)
	}
	if j.time("irgen.lower", func() { mod, err = irgen.Lower(prog) }); err != nil {
		return nil, nil, fmt.Errorf("lower: %w", err)
	}
	c.optBefore += moduleInstrs(mod)
	j.time("opt.optimize", func() { opt.Optimize(mod) })
	c.optAfter += moduleInstrs(mod)
	for _, fn := range mod.Funcs {
		if err := fn.Verify(); err != nil {
			return nil, nil, fmt.Errorf("verify: %w", err)
		}
	}
	var res *interp.Result
	pc := j.time("interp.profile", func() { res, err = interp.New(mod).Run() })
	if err != nil {
		return nil, nil, fmt.Errorf("profile run: %w", err)
	}
	c.interpSteps += res.Steps
	c.interpTime += pc.dur
	return mod, res.Profile, nil
}

// optimized is the frontend without its self-profile run: the module a
// reference run needs.
func optimized(src string) (*ir.Module, error) {
	prog, err := lang.Parse(src)
	if err == nil {
		err = lang.Check(prog)
	}
	if err != nil {
		return nil, err
	}
	mod, err := irgen.Lower(prog)
	if err != nil {
		return nil, err
	}
	opt.Optimize(mod)
	return mod, nil
}

// reference is the interpreter reference run every compiled program is
// checked against.
func reference(j *jobTrace, mod *ir.Module, c *counters) (*interp.Result, error) {
	var ref *interp.Result
	var err error
	rc := j.time("interp.ref", func() { ref, err = interp.New(mod).Run() })
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	c.interpSteps += ref.Steps
	c.interpTime += rc.dur
	c.refRuns++
	c.refTime += rc.dur
	return ref, nil
}

// compiled is a traced compile whose analysis twin, if any, runs after the
// job span closes.
type compiled struct {
	res  *codegen.Result
	call *call
	mod  *ir.Module
	twin bool
}

// compile runs codegen with a pass log; its partition/select/regalloc
// records become kids of the compile span.
func compile(j *jobTrace, mod *ir.Module, opts codegen.Options, fallback bool, c *counters) (*compiled, error) {
	opts.PassLog = &obs.PassLog{}
	var res *codegen.Result
	var err error
	cc := j.time(spanCompile, func() {
		if fallback {
			res, err = codegen.CompileWithFallback(mod, opts)
		} else {
			res, err = codegen.Compile(mod, opts)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, r := range opts.PassLog.Records {
		cc.addKid(passRows[r.Pass], time.Duration(r.Nanos))
	}
	c.compiles++
	if res.Fallback != nil {
		c.fallbacks++
	}
	for _, p := range res.Partitions {
		if p != nil {
			c.rdgNodes += int64(len(p.G.Nodes))
			c.unpins += int64(len(p.G.Unpinned))
		}
	}
	for _, rep := range res.Oracle {
		c.oracleFuncs++
		c.oracleExpansions += rep.Expansions
		if rep.Degraded > 0 {
			c.oracleDegradedFuncs++
		}
	}
	for _, st := range res.Stats {
		c.staticInsts += int64(st.StaticInsts)
		c.spillOp += int64(st.SpillLoads + st.SpillStores)
	}
	return &compiled{res: res, call: cc, mod: mod, twin: opts.Analysis && opts.Scheme != codegen.SchemeNone}, nil
}

// runTwin times the analysis codegen ran inside the compile, as a separate
// call outside the job, and books it as a kid of the compile span.
func (cp *compiled) runTwin() {
	if !cp.twin {
		return
	}
	t := time.Now()
	analysis.AnalyzeModule(cp.mod)
	cp.call.addKid("analysis.analyze", time.Since(t))
}

// timed is a traced timing-model run whose functional twin runs after the
// job span closes.
type timed struct {
	out  *sim.Result
	call *call
	prog *isa.Program
}

// runTiming drives the timing model through run (a fresh or warm machine,
// detailed or sampled), counting its guest cycles and host allocations.
func runTiming(j *jobTrace, prog *isa.Program, run func() (*sim.Result, uarch.SampledStats, error), c *counters) (*timed, error) {
	var before, after runtime.MemStats
	var out *sim.Result
	var st uarch.SampledStats
	var err error
	runtime.ReadMemStats(&before)
	uc := j.time(spanUarchRun, func() { out, st, err = run() })
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	c.uarchRuns++
	c.uarchAllocBytes += after.TotalAlloc - before.TotalAlloc
	c.cycles += st.Cycles
	c.stallCycles += st.TotalStallCycles()
	c.uarchInstrs += st.Instructions
	c.measuredInstrs += st.MeasuredInstructions
	return &timed{out: out, call: uc, prog: prog}, nil
}

// runTwin re-runs the program on the functional simulator alone and books
// that time as the sim.run kid of the timing run; the rest is the timing
// pipeline's own cost.
func (tm *timed) runTwin(fm *sim.Machine, c *counters) error {
	fm.Reset(tm.prog)
	t := time.Now()
	out, err := fm.Run()
	d := time.Since(t)
	if err != nil {
		return fmt.Errorf("functional twin: %w", err)
	}
	tm.call.addKid("sim.run", d)
	c.uarchTime += tm.call.self()
	c.simTime += d
	c.simInstrs += out.Stats.Total
	c.simFPa += out.Stats.BySubsys[isa.SubFPa]
	return nil
}

// detailed adapts a detailed uarch run to runTiming's shape.
func detailed(f func() (*sim.Result, uarch.Stats, error)) func() (*sim.Result, uarch.SampledStats, error) {
	return func() (*sim.Result, uarch.SampledStats, error) {
		out, st, err := f()
		return out, uarch.SampledStats{Stats: st, Exact: true, MeasuredInstructions: st.Instructions}, err
	}
}

// functional is a functional-only simulation inside the job.
func functional(j *jobTrace, prog *isa.Program, c *counters) error {
	var out *sim.Result
	var err error
	sc := j.time("sim.run", func() { out, err = sim.New(prog).Run() })
	if err != nil {
		return err
	}
	c.simTime += sc.dur
	c.simInstrs += out.Stats.Total
	c.simFPa += out.Stats.BySubsys[isa.SubFPa]
	return nil
}

// layerMetrics turns a traced run's ledger and counters into the per-layer
// metrics. gc holds the untraced run's Go runtime deltas, jobs its job
// count and untraced its job total, so the go.* rows describe the measured
// run and trace.overhead_frac compares the two runs over the same jobs.
// Every workload reports the same set; a layer a workload does not touch
// reads zero.
func layerMetrics(l ledger, c *counters, gc runtime.MemStats, jobs int, untraced time.Duration, svc svcLayer) []metric {
	perJob := func(name, row string) metric {
		return metric{Name: name, Value: l.perJobMS(row), Unit: "ms/job", N: l.jobs}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	langTime := l.rows["lang.parse"] + l.rows["lang.check"]
	nj := float64(jobs)
	out := []metric{
		perJob("lang.parse_ms", "lang.parse"),
		perJob("lang.check_ms", "lang.check"),
		perJob("irgen.lower_ms", "irgen.lower"),
		perJob("opt.optimize_ms", "opt.optimize"),
		perJob("interp.profile_ms", "interp.profile"),
		perJob("analysis.analyze_ms", "analysis.analyze"),
		perJob("core.partition_ms", "core.partition"),
		perJob("codegen.select_ms", "codegen.select"),
		perJob("codegen.regalloc_ms", "codegen.regalloc"),
		perJob("codegen.other_ms", rowCodegenOther),
		perJob("sim.run_ms", "sim.run"),
		perJob(rowUarchTiming+"_ms", rowUarchTiming),
		perJob(rowServiceOverhead+"_ms", rowServiceOverhead),
		ratio("ledger.other_frac", l.rows[rowOther].Microseconds(), l.total.Microseconds()),

		{Name: obs.PrefixUarch + "host_ns_per_cycle", Value: div(float64(c.uarchTime), float64(c.cycles)), Unit: "ns/cycle"},
		ratio(obs.PrefixUarch+"stall_frac", c.stallCycles, c.cycles),
		ratio(obs.PrefixUarch+"sampled_frac", c.measuredInstrs, c.uarchInstrs),
		{Name: obs.PrefixUarch + "alloc_mb", Value: div(float64(c.uarchAllocBytes)/1e6, float64(c.uarchRuns)), Unit: "MB/run", N: c.uarchRuns},

		{Name: "go.alloc_mb", Value: div(float64(gc.TotalAlloc)/1e6, nj), Unit: "MB/job", N: jobs},
		{Name: "go.gc_pause_ms", Value: div(float64(gc.PauseTotalNs)/1e6, nj), Unit: "ms/job", N: jobs},
		{Name: "go.gc_cycles", Value: div(float64(gc.NumGC), nj), Unit: "count/job", N: jobs},

		{Name: "sim.minst_per_s", Value: div(float64(c.simInstrs)/1e6, c.simTime.Seconds()), Unit: "Minst/s"},
		ratio("sim.offload_frac", c.simFPa, c.simInstrs),

		{Name: "core.rdg_nodes", Value: div(float64(c.rdgNodes), float64(c.compiles)), Unit: "count/job", N: c.compiles},
		{Name: "core.oracle_expansions", Value: div(float64(c.oracleExpansions), float64(c.compiles)), Unit: "count/job", N: c.compiles},
		ratio("core.oracle_degraded_frac", int64(c.oracleDegradedFuncs), int64(c.oracleFuncs)),
		ratio("core.fallback_frac", int64(c.fallbacks), int64(c.compiles)),

		{Name: "lang.src_kb_per_s", Value: div(float64(c.srcBytes)/1024, langTime.Seconds()), Unit: "KB/s"},
		{Name: "irgen.ir_instrs", Value: div(float64(c.optBefore), float64(l.jobs)), Unit: "count/job", N: l.jobs},
		ratio("opt.ir_removed_frac", c.optBefore-c.optAfter, c.optBefore),
		{Name: "analysis.unpins", Value: div(float64(c.unpins), float64(c.compiles)), Unit: "count/job", N: c.compiles},
		{Name: "codegen.static_insts", Value: div(float64(c.staticInsts), float64(c.compiles)), Unit: "count/job", N: c.compiles},
		{Name: "codegen.spill_ops", Value: div(float64(c.spillOp), float64(c.compiles)), Unit: "count/job", N: c.compiles},

		{Name: "interp.minst_per_s", Value: div(float64(c.interpSteps)/1e6, c.interpTime.Seconds()), Unit: "Minst/s"},
		{Name: "interp.ref_ms", Value: div(ms(c.refTime), float64(c.refRuns)), Unit: "ms/run", N: c.refRuns},
		overhead(l.total, untraced),
	}
	return append(out, svc.metrics()...)
}

// overhead compares the traced run's job total with the untraced run's for
// the same jobs.
func overhead(traced, untraced time.Duration) metric {
	m := metric{Name: "trace.overhead_frac", Unit: "ratio"}
	if untraced > 0 {
		m.Value = float64(traced-untraced) / float64(untraced)
	}
	m.Base = fmt.Sprintf("traced %.1f ms / untraced %.1f ms", ms(traced), ms(untraced))
	return m
}

// memMeter sums the Go runtime's allocation and GC work over the untraced
// halves of a traced run. ReadMemStats stops the world, so a run that is
// not traced never reads it.
type memMeter struct {
	on     bool
	before runtime.MemStats
	sum    runtime.MemStats
}

func (m *memMeter) start() {
	if m.on {
		runtime.ReadMemStats(&m.before)
	}
}

func (m *memMeter) stop() {
	if !m.on {
		return
	}
	var a runtime.MemStats
	runtime.ReadMemStats(&a)
	m.sum.TotalAlloc += a.TotalAlloc - m.before.TotalAlloc
	m.sum.PauseTotalNs += a.PauseTotalNs - m.before.PauseTotalNs
	m.sum.NumGC += a.NumGC - m.before.NumGC
}
