package fpint

// One testing.B benchmark per table and figure of the paper's evaluation
// (DESIGN.md §4 maps each to its experiment). Each benchmark regenerates
// the corresponding result and reports the headline numbers as custom
// metrics, so `go test -bench=. -benchmem` reproduces the evaluation.

import (
	"fmt"
	"testing"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/uarch"
)

// BenchmarkTable1Configs exercises both Table 1 machine configurations on a
// fixed workload, reporting their relative IPC.
func BenchmarkTable1Configs(b *testing.B) {
	s := bench.NewSuite()
	w := bench.Lookup("compress")
	for i := 0; i < b.N; i++ {
		m4, err := s.Measure(w, codegen.SchemeNone, uarch.Config4Way())
		if err != nil {
			b.Fatal(err)
		}
		m8, err := s.Measure(w, codegen.SchemeNone, uarch.Config8Way())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m4.IPC, "ipc-4way")
		b.ReportMetric(m8.IPC, "ipc-8way")
	}
}

// BenchmarkTable2Workloads compiles every benchmark program (Table 2) under
// the advanced scheme.
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite()
		for _, w := range bench.Workloads() {
			w := w
			if _, err := s.Compile(&w, codegen.SchemeAdvanced); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig8PartitionSizes regenerates Figure 8: the size of the FPa
// partition under both schemes, reported as min/max percentages.
func BenchmarkFig8PartitionSizes(b *testing.B) {
	s := bench.NewSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.FigurePartitionSizes(bench.IntWorkloads())
		if err != nil {
			b.Fatal(err)
		}
		reportRange(b, "basic-%", func(j int) float64 { return rows[j].BasicPct }, len(rows))
		reportRange(b, "advanced-%", func(j int) float64 { return rows[j].AdvancedPct }, len(rows))
	}
}

// BenchmarkFig9Speedup4Way regenerates Figure 9: speedups on the 4-way
// machine.
func BenchmarkFig9Speedup4Way(b *testing.B) {
	benchmarkSpeedups(b, uarch.Config4Way())
}

// BenchmarkFig10Speedup8Way regenerates Figure 10: speedups on the 8-way
// machine.
func BenchmarkFig10Speedup8Way(b *testing.B) {
	benchmarkSpeedups(b, uarch.Config8Way())
}

// benchmarkSpeedups builds a fresh run table per iteration, so every
// iteration simulates every run.
func benchmarkSpeedups(b *testing.B, cfg uarch.Config) {
	s := bench.NewSuite()
	for i := 0; i < b.N; i++ {
		rows, err := bench.NewRuns(s).FigureSpeedups(bench.IntWorkloads(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportRange(b, "advspeedup-%", func(j int) float64 { return rows[j].AdvancedPct }, len(rows))
	}
}

// BenchmarkOverheads regenerates the §7.2 overhead numbers of the advanced
// scheme.
func BenchmarkOverheads(b *testing.B) {
	s := bench.NewSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Overheads(bench.IntWorkloads())
		if err != nil {
			b.Fatal(err)
		}
		reportRange(b, "dyngrowth-%", func(j int) float64 { return rows[j].DynGrowthPct }, len(rows))
	}
}

// BenchmarkFPPrograms regenerates §7.5: the schemes applied to
// floating-point programs, with a fresh run table per iteration.
func BenchmarkFPPrograms(b *testing.B) {
	s := bench.NewSuite()
	for i := 0; i < b.N; i++ {
		rows, err := bench.NewRuns(s).FigureSpeedups(bench.FpWorkloads(), uarch.Config4Way())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.AdvancedPct, fmt.Sprintf("speedup-%s-%%", r.Workload))
		}
	}
}

// BenchmarkLoadChanges regenerates the §6.6 load-delta numbers.
func BenchmarkLoadChanges(b *testing.B) {
	s := bench.NewSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.LoadChanges(bench.IntWorkloads())
		if err != nil {
			b.Fatal(err)
		}
		reportRange(b, "loaddelta-%", func(j int) float64 { return rows[j].LoadDeltaPct }, len(rows))
	}
}

// BenchmarkSliceStats regenerates the §4 LdSt-slice measurement (~50% of
// dynamic instructions for integer codes).
func BenchmarkSliceStats(b *testing.B) {
	s := bench.NewSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.SliceStats(bench.IntWorkloads())
		if err != nil {
			b.Fatal(err)
		}
		reportRange(b, "ldst-%", func(j int) float64 { return rows[j].LdStPct }, len(rows))
	}
}

// --- component microbenchmarks ---

// BenchmarkAdvancedPartitioner measures the partitioning algorithm itself.
func BenchmarkAdvancedPartitioner(b *testing.B) {
	w := bench.Lookup("gcc")
	mod, prof, err := codegen.FrontendPipeline(w.Src)
	if err != nil {
		b.Fatal(err)
	}
	var graphs []*core.Graph
	for _, fn := range mod.Funcs {
		graphs = append(graphs, core.BuildGraph(fn, prof))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			p := core.AdvancedPartition(g, core.DefaultCostParams())
			if len(p.Assign) == 0 {
				b.Fatal("empty partition")
			}
		}
	}
}

// BenchmarkCompilePipeline measures frontend+codegen end to end.
func BenchmarkCompilePipeline(b *testing.B) {
	w := bench.Lookup("m88ksim")
	for i := 0; i < b.N; i++ {
		if _, _, err := codegen.CompileSource(w.Src, codegen.Options{Scheme: codegen.SchemeAdvanced}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimingSimulator measures the cycle-level model's throughput
// (simulated instructions per wall second appear as the custom metric).
func BenchmarkTimingSimulator(b *testing.B) {
	w := bench.Lookup("li")
	res, _, err := codegen.CompileSource(w.Src, codegen.Options{Scheme: codegen.SchemeAdvanced})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		_, st, err := uarch.Run(res.Prog, uarch.Config4Way())
		if err != nil {
			b.Fatal(err)
		}
		insts = st.Instructions
	}
	b.ReportMetric(float64(insts*int64(b.N))/b.Elapsed().Seconds(), "sim-insts/s")
}

func reportRange(b *testing.B, label string, get func(int) float64, n int) {
	if n == 0 {
		return
	}
	minV, maxV := get(0), get(0)
	for j := 1; j < n; j++ {
		v := get(j)
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	b.ReportMetric(minV, "min-"+label)
	b.ReportMetric(maxV, "max-"+label)
}

// --- ablation benchmarks (design choices DESIGN.md calls out) ---

// BenchmarkAblationFPaLatency quantifies the §6.6 hardware assumption:
// single-cycle FPa integer ops vs. 2- and 3-cycle variants.
func BenchmarkAblationFPaLatency(b *testing.B) {
	w := bench.Lookup("m88ksim")
	base, _, err := codegen.CompileSource(w.Src, codegen.Options{Scheme: codegen.SchemeNone})
	if err != nil {
		b.Fatal(err)
	}
	adv, _, err := codegen.CompileSource(w.Src, codegen.Options{Scheme: codegen.SchemeAdvanced})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := uarch.Config4Way()
		_, baseStats, err := uarch.Run(base.Prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for extra := 0; extra <= 2; extra++ {
			cfg.FPaExtraLatency = extra
			_, st, err := uarch.Run(adv.Prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*(float64(baseStats.Cycles)/float64(st.Cycles)-1),
				fmt.Sprintf("speedup-%dcycle-%%", 1+extra))
		}
	}
}

// BenchmarkAblationLoadBalance compares the greedy advanced scheme against
// the §6.6 load-balance extension on the memory-light compress workload.
func BenchmarkAblationLoadBalance(b *testing.B) {
	w := bench.Lookup("compress")
	for i := 0; i < b.N; i++ {
		for _, s := range []struct {
			name string
			opts codegen.Options
		}{
			{"greedy", codegen.Options{Scheme: codegen.SchemeAdvanced}},
			{"balanced", codegen.Options{Scheme: codegen.SchemeBalanced, MaxFPaFraction: 0.25}},
		} {
			res, _, err := codegen.CompileSource(w.Src, s.opts)
			if err != nil {
				b.Fatal(err)
			}
			out, st, err := uarch.Run(res.Prog, uarch.Config4Way())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*out.Stats.OffloadFraction(), "offload-"+s.name+"-%")
			b.ReportMetric(st.IPC(), "ipc-"+s.name)
		}
	}
}

// BenchmarkAblationCostParams sweeps the §6.1 empirical constants.
func BenchmarkAblationCostParams(b *testing.B) {
	w := bench.Lookup("gcc")
	mod, prof, err := codegen.FrontendPipeline(w.Src)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, oc := range []float64{3, 6} {
			res, err := codegen.Compile(mod, codegen.Options{
				Scheme: codegen.SchemeAdvanced, Profile: prof,
				Cost: core.CostParams{OCopy: oc, ODupl: 2},
			})
			if err != nil {
				b.Fatal(err)
			}
			out, _, err := uarch.Run(res.Prog, uarch.Config4Way())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*out.Stats.OffloadFraction(), fmt.Sprintf("offload-ocopy%.0f-%%", oc))
		}
	}
}

// BenchmarkAblationInterprocFPArgs measures the §6.6 interprocedural
// extension (integer arguments passed in FP registers) on a call-dense
// kernel whose argument values are produced and consumed in FPa. (On the li
// workload the plan correctly refuses to fire: its arguments are cons-cell
// indices used for addressing, which must stay in integer registers.)
func BenchmarkAblationInterprocFPArgs(b *testing.B) {
	src := `
int out[256];
int classify(int v) {
	int c = 0;
	if (v > 192) c = 3;
	else if (v > 128) c = 2;
	else if (v > 64) c = 1;
	return c;
}
int main() {
	int s = 0;
	for (int rep = 0; rep < 30; rep++) {
		for (int i = 0; i < 256; i++) {
			int x = out[i];
			int y = (x ^ ((rep << 5) + rep)) + (x >> 2);
			s += classify(y & 255);
			out[i] = y & 1023;
		}
	}
	return s & 1048575;
}`
	mod, prof, err := codegen.FrontendPipeline(src)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, ipa := range []bool{false, true} {
			res, err := codegen.Compile(mod, codegen.Options{
				Scheme: codegen.SchemeAdvanced, Profile: prof, InterprocFPArgs: ipa,
			})
			if err != nil {
				b.Fatal(err)
			}
			out, st, err := uarch.Run(res.Prog, uarch.Config4Way())
			if err != nil {
				b.Fatal(err)
			}
			tag := "off"
			if ipa {
				tag = "on"
			}
			b.ReportMetric(float64(out.Stats.Copies), "copies-"+tag)
			b.ReportMetric(100*out.Stats.OffloadFraction(), "offload-"+tag+"-%")
			b.ReportMetric(float64(st.Cycles), "cycles-"+tag)
		}
	}
}
