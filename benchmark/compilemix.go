package main

import (
	"fmt"
	"runtime"
	"time"

	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/difftest"
	"fpint/internal/interp"
	"fpint/internal/ir"
	"fpint/internal/sim"
)

// compileMixSpec is the compile-mix workload: one client compiling
// seed-generated programs the way fpifuzz and the difftest oracle do.
type compileMixSpec struct {
	pool    int // sources generated in set-up; jobs cycle through them
	setups  int
	maxJobs int // 0: until the run's seconds are spent
}

func defaultCompileMix() compileMixSpec { return compileMixSpec{pool: 4096, setups: 7} }

// genSizes are the generator statement budgets programs cycle through.
var genSizes = []int{24, 96, 384}

// mixSchemes are the schemes compile jobs cycle through.
var mixSchemes = []codegen.Scheme{codegen.SchemeBasic, codegen.SchemeAdvanced, codegen.SchemeOptimal}

// mixOracle caps the optimal scheme's search. At the default 1M expansions
// about 7% of generated programs exhaust the budget at ~1 s each, and the
// per-seed count of those programs alone moves throughput by ±30%; at 16K
// a budget-exhausting search costs ~30 ms, so the oracle still owns the
// tail without drowning every other layer's signal.
var mixOracle = core.OracleLimits{MaxExpansions: 1 << 14}

// splitmix is a stateless seed mixer: stream k of seed s.
func splitmix(seed int64, stream, k uint64) int64 {
	x := uint64(seed) ^ stream*0x9E3779B97F4A7C15 ^ k*0xBF58476D1CE4E5B9
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return int64(x ^ x>>31)
}

// genProgram is the k-th generated program of a seed's stream.
func genProgram(seed int64, stream uint64, k int) string {
	cfg := difftest.DefaultGenConfig()
	cfg.MaxStmts = genSizes[k%len(genSizes)]
	return difftest.NewGenerator(splitmix(seed, stream, uint64(k)), cfg).Program()
}

const (
	streamCompile = iota + 1
	streamService
	streamServiceWarm
	streamServicePick
)

func (sp compileMixSpec) sources(seed int64) []string {
	out := make([]string, sp.pool)
	for k := range out {
		out[k] = genProgram(seed, streamCompile, k)
	}
	return out
}

// compileJob is the i-th job: the scheme and analysis mode follow a fixed
// 18-job cycle (with the three program sizes), so every seed runs the same
// mix and only the program text depends on the seed.
type compileJob struct {
	src      int
	scheme   codegen.Scheme
	analysis bool
}

func compileJobAt(i, pool int) compileJob {
	return compileJob{src: i % pool, scheme: mixSchemes[(i/3)%3], analysis: (i/9)%2 == 0}
}

func (jb compileJob) options() codegen.Options {
	return codegen.Options{Scheme: jb.scheme, Analysis: jb.analysis, Oracle: mixOracle}
}

func runCompileMix(name string, sp compileMixSpec, rc runConfig) (*result, error) {
	r := &result{workload: name}
	var setups []float64
	var srcs []string
	for i := 0; i < max(sp.setups, 1); i++ {
		t := time.Now()
		srcs = sp.sources(rc.seed)
		setups = append(setups, time.Since(t).Seconds())
		runtime.GC()
	}

	var tr *tracer
	c := &counters{}
	if rc.trace {
		tr = newTracer()
	}
	mm := memMeter{on: rc.trace}
	fm := sim.NewMachine()
	var lat []float64
	var inJob time.Duration
	start := time.Now()
	for n := 0; time.Since(start) < rc.seconds && (sp.maxJobs == 0 || n < sp.maxJobs); n++ {
		jb := compileJobAt(n, len(srcs))
		// A traced run pairs every job with its traced twin, alternating
		// which goes first, so both see the same machine.
		tracedFirst := tr != nil && n%2 == 1
		if tracedFirst {
			if err := traceCompile(tr, srcs[jb.src], jb.options(), c); err != nil {
				return nil, fmt.Errorf("traced job %d: %w", n, err)
			}
		}
		mm.start()
		d, res, mod, err := timedCompile(srcs[jb.src], jb.options())
		mm.stop()
		if tr != nil && !tracedFirst {
			if err := traceCompile(tr, srcs[jb.src], jb.options(), c); err != nil {
				return nil, fmt.Errorf("traced job %d: %w", n, err)
			}
		}
		r.attempted++
		if err == nil {
			err = verify(mod, res, fm, c)
		}
		if err != nil {
			r.fail("job %d: %v", n, err)
			continue
		}
		inJob += d
		lat = append(lat, ms(d))
	}
	if len(lat) == 0 {
		return r, nil
	}
	lm := latencyMetrics(lat)
	r.metrics = append(r.metrics,
		metric{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups)},
		metric{Name: "jobs_per_s", Value: float64(len(lat)) / inJob.Seconds(), Unit: "1/s", N: len(lat)},
		lm[0], peakRSS())
	r.notes = append(r.notes, lm[1])
	if tr != nil {
		l := tr.ledger()
		r.trace, r.ledger = tr, &l
		r.layers = layerMetrics(l, c, mm.sum, len(lat), inJob, svcLayer{})
	}
	return r, nil
}

// timedCompile is what the workload times: the frontend with its
// self-profile run, then CompileWithFallback.
func timedCompile(src string, opts codegen.Options) (time.Duration, *codegen.Result, *ir.Module, error) {
	t := time.Now()
	mod, prof, err := codegen.FrontendPipeline(src)
	if err != nil {
		return 0, nil, nil, err
	}
	opts.Profile = prof
	res, err := codegen.CompileWithFallback(mod, opts)
	return time.Since(t), res, mod, err
}

// verify checks, untimed, that the compiled program computes what the
// interpreter computes from the same module (codegen never mutates it).
func verify(mod *ir.Module, res *codegen.Result, fm *sim.Machine, c *counters) error {
	t := time.Now()
	ref, err := interp.New(mod).Run()
	c.refTime += time.Since(t)
	c.refRuns++
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	fm.Reset(res.Prog)
	out, err := fm.Run()
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	if out.Ret != ref.Ret || out.Output != ref.Output {
		return fmt.Errorf("output mismatch: simulator %d %q, interpreter %d %q", out.Ret, out.Output, ref.Ret, ref.Output)
	}
	return nil
}

// traceCompile is one traced compile job: the frontend stages, then the
// compile with its pass records, then the analysis twin outside the job.
func traceCompile(tr *tracer, src string, opts codegen.Options, c *counters) error {
	j := tr.begin("job", 0)
	mod, prof, err := frontend(j, src, c)
	if err != nil {
		return err
	}
	opts.Profile = prof
	cp, err := compile(j, mod, opts, true, c)
	if err != nil {
		return err
	}
	tr.end(j)
	cp.runTwin()
	return nil
}
