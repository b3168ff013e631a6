package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/interp"
	"fpint/internal/ir"
	"fpint/internal/sim"
	"fpint/internal/uarch"
)

// sweepSpec is a Fig. 9/10-style sweep: every program under every scheme
// on every machine configuration, measured through bench.Suite the way
// fpibench does.
type sweepSpec struct {
	programs []string
	schemes  []codegen.Scheme
	configs  []uarch.Config
	fast     bool // SetFast(uarch.DefaultSampleConfig())
	setups   int  // set-up repetitions; the median is reported
	// maxPasses caps the passes over the job list (0: as many whole passes
	// as fit in the run's seconds, at least one).
	maxPasses int
}

// detailedSweep is the sweep-detailed workload: the Fig. 9/10 programs,
// memory-bound (compress) beside high-IPC (gcc), on the detailed model.
func detailedSweep() sweepSpec {
	return sweepSpec{
		programs: []string{"compress", "gcc", "ijpeg", "li", "m88ksim", "ear"},
		schemes:  []codegen.Scheme{codegen.SchemeNone, codegen.SchemeBasic, codegen.SchemeAdvanced, codegen.SchemeOptimal},
		configs:  []uarch.Config{uarch.Config4Way(), uarch.Config8Way()},
		setups:   7,
	}
}

// fastSweep is the sweep-fast workload: the long programs users switch to
// the sampled fast mode for. tomcatv is left out so that one whole pass
// fits in a run.
func fastSweep() sweepSpec {
	return sweepSpec{
		programs: []string{"go", "perl", "swim", "hydro2d"},
		schemes:  []codegen.Scheme{codegen.SchemeNone, codegen.SchemeAdvanced},
		configs:  []uarch.Config{uarch.Config4Way(), uarch.Config8Way()},
		fast:     true,
		setups:   5,
	}
}

type sweepJob struct {
	program string
	scheme  codegen.Scheme
	cfg     uarch.Config
}

func (j sweepJob) String() string { return fmt.Sprintf("%s/%s/%s", j.program, j.scheme, j.cfg.Name) }

// jobs is the cross product in seed-shuffled order: every seed measures the
// same set of jobs, so runs with different seeds stay comparable.
func (sp sweepSpec) jobs(seed int64) []sweepJob {
	var out []sweepJob
	for _, p := range sp.programs {
		for _, s := range sp.schemes {
			for _, c := range sp.configs {
				out = append(out, sweepJob{program: p, scheme: s, cfg: c})
			}
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out), func(i, k int) { out[i], out[k] = out[k], out[i] })
	return out
}

// setup builds a Suite and warms its frontend cache: parse through
// optimize, the self-profile run and the interpreter reference, per
// program (a SchemeNone compile is the Suite's entry point that fills it).
func (sp sweepSpec) setup() (*bench.Suite, error) {
	s := bench.NewSuite()
	if sp.fast {
		s.SetFast(uarch.DefaultSampleConfig())
	}
	for _, p := range sp.programs {
		if _, err := s.Compile(bench.Lookup(p), codegen.SchemeNone); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// checkLedger is the guest stall ledger invariant: every cycle is either an
// issue-active cycle or blamed on exactly one stall cause.
func checkLedger(m *bench.Measurement) error {
	sum := m.IssueActiveCycles
	for _, n := range m.Stalls {
		sum += n
	}
	if sum != m.Cycles {
		return fmt.Errorf("stall ledger open: issue-active %d + stalls = %d, cycles %d", m.IssueActiveCycles, sum, m.Cycles)
	}
	return nil
}

// morePasses reports whether another whole pass fits in the run: the first
// pass always runs, and a pass is only started when, at the last pass's
// pace, it ends within the budget.
func morePasses(start time.Time, last time.Duration, done, max int, budget time.Duration) bool {
	if max > 0 && done >= max {
		return false
	}
	return time.Since(start)+last <= budget
}

func runSweep(name string, sp sweepSpec, rc runConfig) (*result, error) {
	for _, p := range sp.programs {
		if bench.Lookup(p) == nil {
			return nil, fmt.Errorf("unknown program %q", p)
		}
	}
	jobs := sp.jobs(rc.seed)
	r := &result{workload: name}

	var setups []float64
	var suite *bench.Suite
	for i := 0; i < max(sp.setups, 1); i++ {
		t := time.Now()
		s, err := sp.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		suite = s
		runtime.GC()
	}
	var st *sweepTracer
	if rc.trace {
		var err error
		if st, err = sp.newTracer(); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
	}

	mm := memMeter{on: rc.trace}
	var passes []float64
	var inJob time.Duration
	var guestInstrs int64
	done := 0
	cycles := map[string]int64{}
	start := time.Now()
	for {
		passStart := time.Now()
		var pass time.Duration
		for k, jb := range jobs {
			// A traced run pairs every job with its traced twin, alternating
			// which goes first, so both see the same machine.
			tracedFirst := st != nil && k%2 == 1
			if tracedFirst {
				if err := st.run(jb); err != nil {
					return nil, err
				}
			}
			mm.start()
			t := time.Now()
			m, err := suite.Measure(bench.Lookup(jb.program), jb.scheme, jb.cfg)
			d := time.Since(t)
			mm.stop()
			if st != nil && !tracedFirst {
				if err := st.run(jb); err != nil {
					return nil, err
				}
			}
			r.attempted++
			if err == nil {
				err = checkLedger(m)
			}
			if err != nil {
				r.fail("%s: %v", jb, err)
				continue
			}
			done++
			pass += d
			guestInstrs += m.DynInstrs
			if len(passes) == 0 {
				cycles[jb.String()] = m.Cycles
				r.guest = append(r.guest, fmt.Sprintf("%s cycles=%d instrs=%d", jb, m.Cycles, m.DynInstrs))
			}
		}
		inJob += pass
		passes = append(passes, ms(pass))
		if st != nil || !morePasses(start, time.Since(passStart), len(passes), sp.maxPasses, rc.seconds) {
			break
		}
	}
	if done == 0 {
		return r, nil
	}

	// A sweep's user waits for the whole sweep: its latency is one pass.
	r.metrics = append(r.metrics,
		metric{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups)},
		metric{Name: "jobs_per_s", Value: float64(done) / inJob.Seconds(), Unit: "1/s", N: done},
		metric{Name: "latency_p50_ms", Value: median(passes), Unit: "ms", N: len(passes)},
		peakRSS())
	r.notes = append(r.notes,
		metric{Name: "sim_minst_per_s", Value: float64(guestInstrs) / 1e6 / inJob.Seconds(), Unit: "Minst/s", N: done})
	r.notes = append(r.notes, sp.speedups(cycles)...)

	if st != nil {
		l := st.tr.ledger()
		r.trace, r.ledger = st.tr, &l
		r.layers = layerMetrics(l, &st.c, mm.sum, done, inJob, svcLayer{})
	}
	return r, nil
}

// speedups are the guest results users run the sweep for: the geometric
// mean speedup of the advanced scheme over conventional code per machine
// configuration. They are exact cycle counts, so a host-only change must
// leave them identical.
func (sp sweepSpec) speedups(cycles map[string]int64) []metric {
	var out []metric
	for _, cfg := range sp.configs {
		var base, adv []int64
		for _, p := range sp.programs {
			b, okB := cycles[sweepJob{p, codegen.SchemeNone, cfg}.String()]
			a, okA := cycles[sweepJob{p, codegen.SchemeAdvanced, cfg}.String()]
			if okB && okA {
				base, adv = append(base, b), append(adv, a)
			}
		}
		if len(base) > 0 {
			out = append(out, metric{Name: fmt.Sprintf("adv_speedup_%s_pct", strings.ReplaceAll(cfg.Name, "-", "")), Value: geomeanSpeedupPct(base, adv), Unit: "%", N: len(base)})
		}
	}
	return out
}

// sweepFront is one program's frontend output in the traced run.
type sweepFront struct {
	mod  *ir.Module
	prof *interp.Profile
	ref  *interp.Result
}

// sweepTracer runs sweep jobs traced, calling each layer directly in the
// order Suite.Measure does: the frontend and the reference run once per
// program as set-up, then per job a compile and a timing run, with the
// functional twin after the job span closes.
type sweepTracer struct {
	sp     sweepSpec
	tr     *tracer
	c      counters
	fronts map[string]*sweepFront
	fm     *sim.Machine
}

func (sp sweepSpec) newTracer() (*sweepTracer, error) {
	st := &sweepTracer{sp: sp, tr: newTracer(), fronts: map[string]*sweepFront{}, fm: sim.NewMachine()}
	for _, p := range sp.programs {
		j := st.tr.begin("setup", 0)
		mod, prof, err := frontend(j, bench.Lookup(p).Src, &st.c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		ref, err := reference(j, mod, &st.c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		st.tr.end(j)
		st.fronts[p] = &sweepFront{mod: mod, prof: prof, ref: ref}
	}
	runtime.GC()
	return st, nil
}

func (st *sweepTracer) run(jb sweepJob) error {
	fr := st.fronts[jb.program]
	j := st.tr.begin("job", 0)
	cp, err := compile(j, fr.mod, codegen.Options{Scheme: jb.scheme, Profile: fr.prof}, false, &st.c)
	if err != nil {
		return fmt.Errorf("traced %s: %w", jb, err)
	}
	prog, cfg := cp.res.Prog, jb.cfg
	run := detailed(func() (*sim.Result, uarch.Stats, error) { return uarch.Run(prog, cfg) })
	if st.sp.fast {
		run = func() (*sim.Result, uarch.SampledStats, error) {
			return uarch.RunSampled(prog, cfg, uarch.DefaultSampleConfig())
		}
	}
	tm, err := runTiming(j, prog, run, &st.c)
	if err != nil {
		return fmt.Errorf("traced %s: %w", jb, err)
	}
	if tm.out.Ret != fr.ref.Ret || tm.out.Output != fr.ref.Output {
		return fmt.Errorf("traced %s: functional mismatch", jb)
	}
	st.tr.end(j)
	return tm.runTwin(st.fm, &st.c)
}
