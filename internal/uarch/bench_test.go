package uarch_test

import (
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/uarch"
)

// BenchmarkPipelineLoop times the uarch simulator's main pipeline loop on
// both Table 1 machine configurations, driving the same integer loop the
// timing sanity tests use on a warm reusable Machine (the steady state the
// allocation-free refactor targets; allocs/op should read 0). The timeline
// flight recorder is armed, so the number also covers the always-on
// telemetry cost. Run with -benchmem and feed the output to `fpistat
// record -gobench` to track the simulator's host-side cost in the
// run-record store.
func BenchmarkPipelineLoop(b *testing.B) {
	res, _, err := codegen.CompileSource(loopSrc, codegen.Options{Scheme: codegen.SchemeAdvanced, Analysis: true})
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			m := uarch.NewMachine(cfg)
			m.SetTimelineWidth(1024)
			if _, _, err := m.Run(res.Prog); err != nil {
				b.Fatalf("warm-up run: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.Run(res.Prog); err != nil {
					b.Fatalf("run: %v", err)
				}
			}
		})
	}
}

// BenchmarkRunSampled times the sampled-timing fast mode on the same loop
// and warm Machine, at the default sampling parameters — the direct
// comparison point for BenchmarkPipelineLoop (same workload, same configs;
// the gap is what sampling buys). Also a steady-state allocation watch for
// the fast path: allocs/op must stay a small constant (the sampler struct
// and the estimate's rescaled histograms), independent of program length,
// as TestRunSampledAllocsIndependentOfLength checks.
func BenchmarkRunSampled(b *testing.B) {
	res, _, err := codegen.CompileSource(loopSrc, codegen.Options{Scheme: codegen.SchemeAdvanced, Analysis: true})
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	sc := uarch.DefaultSampleConfig()
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			m := uarch.NewMachine(cfg)
			if _, _, err := m.RunSampled(res.Prog, sc); err != nil {
				b.Fatalf("warm-up run: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.RunSampled(res.Prog, sc); err != nil {
					b.Fatalf("run: %v", err)
				}
			}
		})
	}
}
