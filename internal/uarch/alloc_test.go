package uarch_test

import (
	"reflect"
	"strings"
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/faultinject"
	"fpint/internal/uarch"
)

// TestPipelineZeroSteadyStateAllocs pins the allocation-free property of
// the simulator core: after one warm-up run, a reusable Machine must
// execute an entire program — functional simulation plus the full detailed
// timing pipeline — without a single heap allocation, on both Table 1
// configurations. This is the hard form of the -benchmem benchmark number:
// any per-cycle or per-instruction allocation sneaking back into the hot
// loop fails the test, not just a trend line.
func TestPipelineZeroSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	res, _, err := codegen.CompileSource(loopSrc, codegen.Options{Scheme: codegen.SchemeAdvanced, Analysis: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		for _, variant := range []string{"bare", "timeline", "hook"} {
			name := cfg.Name + "/" + variant
			t.Run(name, func(t *testing.T) {
				m := uarch.NewMachine(cfg)
				switch variant {
				case "timeline":
					// The flight recorder must not cost the hot loop any
					// allocations either: its window columns are recycled
					// across runs like every other machine buffer.
					m.SetTimelineWidth(256)
				case "hook":
					// Neither may the cooperative cancellation hook the
					// daemon arms on every job: the periodic check runs
					// inside the steady-state loop and must stay free.
					m.SetRunHook(func(int64) error { return nil }, 256)
					m.SetStepLimit(1 << 40)
				}
				// Warm up: first run grows the static table, stats map,
				// and timeline columns to their steady-state capacity.
				if _, _, err := m.Run(res.Prog); err != nil {
					t.Fatalf("warm-up run: %v", err)
				}
				allocs := testing.AllocsPerRun(3, func() {
					if _, _, err := m.Run(res.Prog); err != nil {
						t.Fatalf("run: %v", err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s: warm machine allocated %.1f times per run, want 0", name, allocs)
				}
			})
		}
	}
}

// TestRunSampledAllocsIndependentOfLength pins the fast mode's allocation
// profile on a warm machine: a run allocates a fixed set (the sampler, its
// strata and the estimate's histograms), so a program four times longer —
// more warming batches, more windows — allocates exactly as often. A
// per-batch or per-window allocation fails it.
func TestRunSampledAllocsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	long := strings.Replace(loopSrc, "rep < 30", "rep < 120", 1)
	if long == loopSrc {
		t.Fatal("loop kernel has no trip count to lengthen")
	}
	sc := uarch.DefaultSampleConfig()
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		var allocs [2]float64
		for i, src := range []string{loopSrc, long} {
			res, _, err := codegen.CompileSource(src, codegen.Options{Scheme: codegen.SchemeAdvanced, Analysis: true})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			m := uarch.NewMachine(cfg)
			_, ss, err := m.RunSampled(res.Prog, sc)
			if err != nil || ss.Exact {
				t.Fatalf("%s: warm-up run: exact %v, err %v", cfg.Name, ss.Exact, err)
			}
			allocs[i] = testing.AllocsPerRun(3, func() {
				if _, _, err := m.RunSampled(res.Prog, sc); err != nil {
					t.Fatalf("run: %v", err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocations per run on the loop kernel, %v on one 4x longer", cfg.Name, allocs[0], allocs[1])
		}
	}
}

// TestWarmMachineMatchesFreshRun pins that reuse is behavior-neutral: a
// machine that has already run must produce bit-identical functional output
// and the whole Stats, histograms included, on its next run compared to a
// fresh machine — i.e. Reset leaks no state between runs. The dirtying runs
// leave different scheduler state behind: a plain run of another program, a
// fault-flushed run (squashes mid-flight, then the plan is disarmed), a run
// aborted by the step limit with the pipeline still full, and a fast-mode
// run (resetCore between detailed windows).
func TestWarmMachineMatchesFreshRun(t *testing.T) {
	progA, _, err := codegen.CompileSource(loopSrc, codegen.Options{Scheme: codegen.SchemeAdvanced, Analysis: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	const otherSrc = `
int main() {
	int s = 1;
	for (int i = 1; i < 200; i++) s = (s * 31 + i) % 65537;
	return s;
}`
	progB, _, err := codegen.CompileSource(otherSrc, codegen.Options{Scheme: codegen.SchemeBasic})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dirtiers := []struct {
		name string
		run  func(m *uarch.Machine) error
	}{
		{"plain", func(m *uarch.Machine) error {
			_, _, err := m.Run(progB.Prog)
			return err
		}},
		{"fault-flushed", func(m *uarch.Machine) error {
			plan := faultinject.NewPlan(faultinject.Config{Seed: 5, Kind: faultinject.KindWrongDispatch, Rate: 0.01})
			m.SetFaultPlan(plan)
			defer m.SetFaultPlan(nil)
			if _, _, err := m.Run(progA.Prog); err != nil {
				return err
			}
			if len(plan.Trace()) == 0 {
				t.Error("fault plan injected nothing")
			}
			return nil
		}},
		{"step-limit trap", func(m *uarch.Machine) error {
			// Aborted mid-run: many record batches in, so the pipeline
			// has stepped and is left full, never drained.
			m.SetStepLimit(50000)
			defer m.SetStepLimit(0)
			if _, _, err := m.Run(progA.Prog); err == nil {
				t.Error("step limit did not abort the run")
			}
			return nil
		}},
		{"sampled", func(m *uarch.Machine) error {
			_, ss, err := m.RunSampled(progA.Prog, uarch.DefaultSampleConfig())
			if err == nil && ss.Exact {
				t.Error("sampled run fell back to the detailed model")
			}
			return err
		}},
	}
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		fresh, freshSt, err := uarch.Run(progA.Prog, cfg)
		if err != nil {
			t.Fatalf("fresh run: %v", err)
		}
		for _, d := range dirtiers {
			m := uarch.NewMachine(cfg)
			if err := d.run(m); err != nil {
				t.Fatalf("%s/%s: dirtying run: %v", cfg.Name, d.name, err)
			}
			warm, warmSt, err := m.Run(progA.Prog)
			if err != nil {
				t.Fatalf("%s/%s: warm run: %v", cfg.Name, d.name, err)
			}
			if warm.Ret != fresh.Ret || warm.Output != fresh.Output {
				t.Errorf("%s/%s: warm functional result differs: ret %d vs %d", cfg.Name, d.name, warm.Ret, fresh.Ret)
			}
			if !reflect.DeepEqual(warmSt, freshSt) {
				t.Errorf("%s/%s: warm Stats differ from a fresh run\n warm: %+v\nfresh: %+v", cfg.Name, d.name, warmSt, freshSt)
			}
		}
	}
}
