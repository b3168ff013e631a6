package service

import (
	"time"

	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/fperr"
	"fpint/internal/obs"
	"fpint/internal/sim"
	"fpint/internal/trap"
	"fpint/internal/uarch"
)

// hookInterval is the cooperative-cancellation cadence in dynamic steps.
// Coarse enough to stay invisible in the engines' zero-allocation hot
// loops, fine enough that a deadline aborts within microseconds of real
// work.
const hookInterval = 4096

// execute runs one job to a terminal artifact. It never panics and never
// returns a Go error: every failure mode — including panics anywhere in
// the compile/simulate stack — becomes a classified response document, so
// one poisoned job cannot take the process down.
func (s *Server) execute(j *job, key string, ws *workerState) (art *Artifact) {
	defer s.stats.completed.Add(1)
	defer func() {
		if r := recover(); r != nil {
			// The borrowed warm machines were possibly abandoned mid-run;
			// rebuild rather than trust them.
			ws.reset()
			s.stats.panics.Add(1)
			err := fperr.New(fperr.ClassInternal, "job panicked: %v", r)
			art = failed(j.kind, key, err)
		}
	}()

	if j.panicJob {
		if !s.opts.Chaos {
			return failed(j.kind, key, fperr.New(fperr.ClassUsage, "panic jobs require the daemon to run in chaos mode"))
		}
		panic("chaos: panic job requested")
	}

	hook := s.runHook(j)
	opts := codegen.Options{
		Scheme:   j.scheme,
		Analysis: j.analysis,
		Frontend: codegen.FrontendBudget{StepLimit: j.budget, RunHook: hook, HookEvery: hookInterval},
	}
	if j.kind == KindCompile {
		opts.PassLog = &obs.PassLog{}
	}
	if s.testCompileOptions != nil {
		s.testCompileOptions(&opts)
	}

	res, mod, err := codegen.CompileSourceWithFallback(j.src, opts)
	if err != nil {
		return failed(j.kind, key, err)
	}

	resp := &Response{Schema: ResponseSchema, Kind: j.kind, Key: key, Class: fperr.ClassNone.String()}
	if res.Fallback != nil {
		resp.Degraded = true
		resp.Class = fperr.ClassDegraded.String()
		resp.Error = res.DegradedError().Error()
	}

	switch j.kind {
	case KindCompile:
		resp.Compile = codegen.BuildCompileReport(j.schemeName, mod.Funcs, res, opts.PassLog)
	case KindPartition:
		pr := &PartitionReport{Scheme: j.schemeName, Fallback: res.Fallback, Funcs: make(map[string]*core.Audit)}
		for _, fn := range mod.Funcs {
			if p := res.Partitions[fn.Name]; p != nil {
				pr.Funcs[fn.Name] = p.Audit
			}
		}
		resp.Partition = pr
	case KindSimulate:
		sr, err := s.simulate(j, res, ws, hook)
		if err != nil {
			return failed(j.kind, key, err)
		}
		resp.Simulate = sr
	}

	class := fperr.ClassNone
	if resp.Degraded {
		class = fperr.ClassDegraded
	}
	return newArtifact(key, class, resp)
}

// failed is the artifact of a job that ended in the classified error err.
func failed(kind, key string, err error) *Artifact {
	return newArtifact(key, fperr.ClassOf(err), errorResponse(kind, key, err))
}

// simulate runs the compiled program on the engine the job selected,
// returning the deterministic metric document. Engine traps (including
// blown budgets and expired deadlines) are input-class errors.
func (s *Server) simulate(j *job, res *codegen.Result, ws *workerState, hook func(int64) error) (*SimulateReport, error) {
	reg := obs.NewRegistry()
	var out *sim.Result
	var st uarch.Stats
	var sst uarch.SampledStats
	var err error
	timed := j.timing != timingFunctional

	if timed {
		m := ws.machine(j.cfg)
		m.SetStepLimit(j.budget)
		m.SetRunHook(hook, hookInterval)
		if j.timing == timingFast {
			out, sst, err = m.RunSampled(res.Prog, uarch.DefaultSampleConfig())
			st = sst.Stats
		} else {
			out, st, err = m.Run(res.Prog)
		}
		// Disarm before the machine goes back to the pool's warm state:
		// the hook closes over this job's deadline.
		m.SetRunHook(nil, 0)
		m.SetStepLimit(0)
	} else {
		m := sim.New(res.Prog)
		if j.budget > 0 {
			m.SetStepLimit(j.budget)
		}
		m.SetRunHook(hook, hookInterval)
		out, err = m.Run()
	}
	if err != nil {
		return nil, fperr.Wrap(fperr.ClassInput, err)
	}

	reg.Gauge(obs.MetricRunExit).Set(float64(out.Ret))
	out.Stats.AddTo(reg, obs.PrefixSim)
	switch {
	case j.timing == timingFast:
		sst.AddTo(reg, obs.PrefixUarch)
	case timed:
		st.AddTo(reg, obs.PrefixUarch)
	}
	return &SimulateReport{Exit: out.Ret, Output: out.Output, Metrics: metricsJSON(reg)}, nil
}

// runHook builds the job's cooperative cancellation check: it trips when
// the job deadline passes or the server force-aborts a drain that ran out
// of grace. A nil return means the job runs unhooked (no deadline, and
// force-abort still covered by the server default hook when configured).
func (s *Server) runHook(j *job) func(int64) error {
	deadline := time.Time{}
	if j.deadline > 0 {
		deadline = time.Now().Add(j.deadline)
	}
	return func(steps int64) error {
		if s.aborting.Load() {
			return trap.New(trap.KindCancelled, "service", "server shutting down after %d steps", steps)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return trap.New(trap.KindCancelled, "service", "job deadline exceeded after %d steps", steps)
		}
		return nil
	}
}
