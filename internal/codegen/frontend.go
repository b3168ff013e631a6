package codegen

import (
	"fmt"
	"time"

	"fpint/internal/interp"
	"fpint/internal/ir"
	"fpint/internal/irgen"
	"fpint/internal/lang"
	"fpint/internal/obs"
	"fpint/internal/opt"
)

// FrontendPipeline runs parse → check → lower → optimize and produces a
// self-profile by executing the optimized IR once (the profile-guided cost
// model's input, standing in for the paper's training runs — the workloads
// are deterministic, so self-profiling is faithful).
func FrontendPipeline(src string) (*ir.Module, *interp.Profile, error) {
	mod, res, err := FrontendPipelineBudgeted(src, nil, FrontendBudget{})
	if err != nil {
		return nil, nil, err
	}
	return mod, res.Profile, nil
}

// FrontendBudget bounds the frontend's self-profile interpreter run — the
// one stage of compilation that executes the user's program and therefore
// inherits its runtime. A long-running service cannot afford an unbounded
// profile run on adversarial input: StepLimit caps the dynamic IR
// instruction count (0 keeps the interpreter's 2e9 default) and RunHook is
// the cooperative cancellation check threaded into the interpreter step
// loop (see interp.Machine.SetRunHook), so a job deadline aborts the
// profile run the same way it aborts a simulation.
type FrontendBudget struct {
	StepLimit int64
	RunHook   func(steps int64) error
	// HookEvery is the RunHook cadence in steps (0 = the interpreter's
	// default interval).
	HookEvery int64
}

// FrontendPipelineBudgeted is FrontendPipeline with per-stage
// instrumentation and the self-profile run bounded by budget: every
// frontend stage and every optimizer pass appends a record (name, unit,
// wall time, IR instruction delta) to plog, and a nil plog disables
// instrumentation. It returns that run's whole result, not just its
// Profile: with a zero budget the run is exactly interp.New(mod).Run(), so
// Ret and Output serve as the interpreter reference without a second run.
func FrontendPipelineBudgeted(src string, plog *obs.PassLog, budget FrontendBudget) (*ir.Module, *interp.Result, error) {
	mod, err := Frontend(src, plog)
	if err != nil {
		return nil, nil, err
	}

	start := time.Now()
	before := moduleInstrs(mod)
	im := interp.New(mod)
	if budget.StepLimit > 0 {
		im.SetStepLimit(budget.StepLimit)
	}
	if budget.RunHook != nil {
		im.SetRunHook(budget.RunHook, budget.HookEvery)
	}
	res, err := im.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("profile run: %w", err)
	}
	if plog != nil {
		plog.Add("profile", "module", time.Since(start).Nanoseconds(), before, moduleInstrs(mod))
	}
	return mod, res, nil
}

// Frontend runs parse → check → lower → optimize → verify, the pipeline
// without the self-profile run, so it accepts programs that trap at run
// time. Stages report to plog as in FrontendPipelineBudgeted.
func Frontend(src string, plog *obs.PassLog) (*ir.Module, error) {
	stage := func(name string, mod *ir.Module, start time.Time) {
		if plog == nil {
			return
		}
		after := 0
		if mod != nil {
			after = moduleInstrs(mod)
		}
		plog.Add(name, "module", time.Since(start).Nanoseconds(), 0, after)
	}

	start := time.Now()
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	stage("parse", nil, start)

	start = time.Now()
	if err := lang.Check(prog); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	stage("check", nil, start)

	start = time.Now()
	mod, err := irgen.Lower(prog)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	stage("lower", mod, start)

	opt.OptimizeObserved(mod, plog.Observer())
	for _, fn := range mod.Funcs {
		if err := fn.Verify(); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
	}
	return mod, nil
}

// moduleInstrs counts the module's IR instructions.
func moduleInstrs(mod *ir.Module) int {
	n := 0
	for _, fn := range mod.Funcs {
		for _, b := range fn.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}
