// Command fpibench regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	fpibench                 # run everything
//	fpibench -fig8 -fig9     # selected experiments only
//	fpibench -table1 -table2 # static tables
//	fpibench -json results.json  # machine-readable results ("-" for stdout)
//	fpibench -faultsweep     # per-scheme fault-sensitivity sweep (both configs)
//	fpibench -hostmetrics    # also print per-experiment host-side cost (wall, allocs, GC)
//	fpibench -fast -fig9     # sampled-timing sweep: bounded-error cycle estimates, much faster
//	fpibench -oracle-gap     # greedy-vs-optimal partition gap per workload, both configs (gated)
//	fpibench -calibrate -calib-out CALIB.json  # fit o_copy/o_dupl against measured cycles
//
// The cycle counts behind Figures 9/10 and §7.5 are pinned as run records
// in BASELINE_RUNS.jsonl and gated with `fpistat record -suite` plus
// `fpistat gate -baseline BASELINE_RUNS.jsonl`.
//
// Exit codes: 0 success, 1 usage error, 2 input error (e.g. an unwritable
// -json file), 3 an experiment failed, 5 the -oracle-gap gate failed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/faultinject"
	"fpint/internal/fperr"
	"fpint/internal/obs"
	"fpint/internal/obs/hostmetrics"
	"fpint/internal/uarch"
)

func main() {
	err := fpibenchMain()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpibench: %v\n", err)
	}
	os.Exit(fperr.ExitCode(err))
}

func fpibenchMain() error {
	var (
		table1        = flag.Bool("table1", false, "print Table 1 (machine parameters)")
		table2        = flag.Bool("table2", false, "print Table 2 (benchmark programs)")
		fig8          = flag.Bool("fig8", false, "Figure 8: size of the FPa partition")
		fig9          = flag.Bool("fig9", false, "Figure 9: speedups on the 4-way machine")
		fig10         = flag.Bool("fig10", false, "Figure 10: speedups on the 8-way machine")
		overheads     = flag.Bool("overheads", false, "§7.2 overhead statistics")
		fpprogs       = flag.Bool("fpprogs", false, "§7.5 floating-point programs")
		loads         = flag.Bool("loads", false, "§6.6 load-count changes")
		slices        = flag.Bool("slices", false, "§4 computational-slice weights")
		imbalance     = flag.Bool("imbalance", false, "§7.3 load-imbalance statistics")
		phases        = flag.Bool("phases", false, "per-benchmark phase timeline: segmented occupancy/stall phases on both configurations")
		phaseWidth    = flag.Int64("phase-width", 1024, "with -phases: timeline window width in cycles")
		jsonOut       = flag.String("json", "", "also write the selected experiments as JSON to the given file (\"-\" for stdout, suppressing the tables)")
		faultsw       = flag.Bool("faultsweep", false, "per-scheme fault-sensitivity sweep on both machine configurations")
		faultRate     = flag.Float64("fault-rate", 0.001, "with -faultsweep: per-instruction fault probability")
		faultSeed     = flag.Int64("fault-seed", 1, "with -faultsweep: fault plan seed")
		analysisDelta = flag.Bool("analysis-delta", false, "static-analysis payoff: offload and cycles with the address oracle off vs on, both configurations")
		hostMetrics   = flag.Bool("hostmetrics", false, "also print a per-experiment host-side cost table (wall time, allocations, GC)")
		fastMode      = flag.Bool("fast", false, "run cycle experiments in the sampled-timing fast mode (bounded-error sweep; incompatible with fault sweeps and exact-cycle gates)")
		fastPeriod    = flag.Int("fast-period", 0, "with -fast: starting sampling period in units, one in N measured; it doubles as the estimate converges (0 = default)")
		oracleGap     = flag.Bool("oracle-gap", false, "greedy-vs-optimal partition gap per workload on both configurations (gated: profit dominance must hold and the exact search must complete)")
		calibrate     = flag.Bool("calibrate", false, "fit the cost-model constants o_copy/o_dupl against measured cycle deltas on both configurations")
		calibOut      = flag.String("calib-out", "", "with -calibrate: write the fpint-calib/v1 JSON document to the given file (\"-\" for stdout)")
	)
	flag.Parse()
	if *faultRate <= 0 || *faultRate > 1 {
		return fperr.New(fperr.ClassUsage, "-fault-rate %g outside (0,1]", *faultRate)
	}
	if *fastMode {
		// The fault model needs continuous detailed execution, and the
		// gates judge exact detailed cycles; neither mixes with sampling.
		if *faultsw {
			return fperr.New(fperr.ClassUsage, "-fast does not support -faultsweep; fault injection needs the detailed model")
		}
		if *oracleGap || *calibrate {
			return fperr.New(fperr.ClassUsage, "-fast does not support -oracle-gap/-calibrate; both gate on exact detailed cycles")
		}
	}
	if *calibOut != "" && !*calibrate {
		return fperr.New(fperr.ClassUsage, "-calib-out requires -calibrate")
	}
	all := !(*table1 || *table2 || *fig8 || *fig9 || *fig10 || *overheads || *fpprogs || *loads || *slices || *imbalance || *faultsw || *analysisDelta || *phases || *oracleGap || *calibrate)

	c := &ctx{s: bench.NewSuite(), quiet: *jsonOut == "-"}
	if *fastMode {
		sc := uarch.DefaultSampleConfig()
		if *fastPeriod > 0 {
			sc.Period = *fastPeriod
		}
		c.s.SetFast(sc)
		if !c.quiet {
			fmt.Printf("fast mode: sampled timing (start period=%d, doubling once a stratum's 99.7%% CI is within 1%%; width=%d warmup=%d) — cycle figures are bounded-error estimates\n",
				sc.Period, sc.Width, sc.Warmup)
		}
	}
	if *jsonOut != "" {
		c.rep = bench.NewReport()
	}
	type hostRow struct {
		name   string
		sample hostmetrics.Sample
	}
	var hostRows []hostRow
	var runErr error
	run := func(name string, f func(*ctx) error) {
		if runErr != nil {
			return
		}
		if !c.quiet {
			fmt.Printf("\n================ %s ================\n", name)
		}
		var err error
		sample := hostmetrics.Measure(func() { err = f(c) })
		if *hostMetrics {
			hostRows = append(hostRows, hostRow{name, sample})
		}
		if err != nil {
			runErr = fperr.Wrapf(fperr.ClassInternal, err, "%s", name)
		}
	}

	if all || *table1 {
		run("Table 1: machine parameters", printTable1)
	}
	if all || *table2 {
		run("Table 2: benchmark programs", printTable2)
	}
	if all || *slices {
		run("Computational slices (§4)", printSlices)
	}
	if all || *fig8 {
		run("Figure 8: size of the FPa partition", printFig8)
	}
	if all || *fig9 {
		run("Figure 9: speedups on the 4-way machine", printFig9)
	}
	if all || *fig10 {
		run("Figure 10: speedups on the 8-way machine", printFig10)
	}
	if all || *overheads {
		run("Overheads of the advanced scheme (§7.2)", printOverheads)
	}
	if all || *loads {
		run("Load-count changes from register pressure (§6.6)", printLoads)
	}
	if all || *imbalance {
		run("Load imbalance: INT idle while FPa busy (§7.3)", printImbalance)
	}
	if all || *fpprogs {
		run("Floating-point programs (§7.5)", printFpProgs)
	}
	if all || *phases {
		run("Phase timeline (advanced scheme)", func(c *ctx) error {
			return printPhases(c, *phaseWidth)
		})
	}
	if all || *analysisDelta {
		run("Static-analysis payoff (analysis off vs on)", printAnalysisDelta)
	}
	if (all && !*fastMode) || *oracleGap {
		run("Greedy-vs-optimal partition gap (exact oracle)", printOracleGap)
	}
	if (all && !*fastMode) || *calibrate {
		run("Cost-model self-calibration (o_copy/o_dupl fit)", func(c *ctx) error {
			return printCalibration(c, *calibOut)
		})
	}
	if (all && !*fastMode) || *faultsw {
		fc := faultinject.Config{Seed: *faultSeed, Kind: faultinject.KindAny, Rate: *faultRate}
		run("Fault sensitivity (robustness sweep)", func(c *ctx) error {
			return printFaultSweep(c, fc)
		})
	}
	if runErr != nil {
		return runErr
	}
	if fs := c.s.FastSummary(); fs.Runs > 0 && !c.quiet {
		fmt.Printf("\nfast mode: %d sampled runs, %s up to %d, %s up to %.2f%%\n",
			fs.Runs, obs.MetricFastFinalPeriod, fs.MaxFinalPeriod, obs.MetricFastRelCI, 100*fs.MaxRelCI)
	}

	if *hostMetrics && !c.quiet {
		fmt.Printf("\n================ host-side cost (self-metrics) ================\n")
		var out [][]string
		for _, r := range hostRows {
			out = append(out, []string{r.name,
				fmt.Sprintf("%v", time.Duration(r.sample.WallNS)),
				fmt.Sprintf("%d", r.sample.Allocs),
				fmt.Sprintf("%d", r.sample.Bytes),
				fmt.Sprintf("%d", r.sample.GCCycles),
				fmt.Sprintf("%v", time.Duration(r.sample.GCPauseNS))})
		}
		fmt.Print(bench.FormatTable([]string{"Experiment", "Wall", "Allocs", "Bytes", "GC", "GC pause"}, out))
		fmt.Println("\nHost numbers measure this simulator process, not the modeled machine;\nthey are noisy — gate them with `fpistat gate`, never by eye.")
	}
	if c.rep != nil {
		if err := writeTo(*jsonOut, c.rep.WriteJSON); err != nil {
			return fperr.Wrap(fperr.ClassInput, err)
		}
	}
	return nil
}

// printAnalysisDelta reports what the alias/value-range address oracle buys
// per workload: static offload share and unpinned address nodes under the
// basic and advanced schemes, plus cycle counts on both Table 1 machines
// with the oracle off and on. Every run is functionally cross-checked
// against the IR interpreter.
func printAnalysisDelta(c *ctx) error {
	ws := append(bench.IntWorkloads(), bench.FpWorkloads()...)
	for _, scheme := range []codegen.Scheme{codegen.SchemeBasic, codegen.SchemeAdvanced} {
		rows, err := c.s.AnalysisDelta(ws, scheme)
		if err != nil {
			return err
		}
		c.record("analysis_delta_"+scheme.String(), "analysis", rows)
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{r.Workload, scheme.String(),
				fmt.Sprintf("%5.1f%%", r.StaticOffPct),
				fmt.Sprintf("%5.1f%%", r.StaticOnPct),
				fmt.Sprintf("%d", r.Unpins),
				fmt.Sprintf("%d", r.Cycles4Off), fmt.Sprintf("%d", r.Cycles4On),
				fmt.Sprintf("%d", r.Cycles8Off), fmt.Sprintf("%d", r.Cycles8On)})
		}
		c.table([]string{"Benchmark", "Scheme", "Off(static)", "On(static)", "Unpins",
			"4way off", "4way on", "8way off", "8way on"}, out)
	}
	c.note("\nStatic %% is the profile-weighted FPa share of partitionable weight. The\nanalyses unpin provably in-bounds load/store addresses; the basic scheme\n(no copies) benefits most, the advanced cost model keeps only profitable\nslices. Functional results are interpreter-checked on every run.")
	return nil
}

// printOracleGap reports the greedy-vs-optimal partition gap per workload
// on both Table 1 machines and gates on the oracle's invariants: the
// exact search must complete within the default limits and the optimal
// profit must dominate the greedy profit on every row.
func printOracleGap(c *ctx) error {
	var all []bench.OracleGapRow
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		rows, err := c.s.OracleGaps(bench.IntWorkloads(), cfg)
		if err != nil {
			return err
		}
		c.record("oracle_gap_"+cfg.Name, "oracle", rows)
		if !c.quiet {
			fmt.Print(bench.OracleGapTable(rows))
		}
		all = append(all, rows...)
	}
	c.note("\nProfit is the §6.1 cost-model total (profile-weight units; configuration-\nindependent). A positive gap is offload the greedy heuristic missed; the\ncycle delta shows what the exact partition is worth on the detailed model.\nThe gate fails on any dominance violation or degraded (non-exact) search.")
	return bench.GateOracleGaps(all)
}

// printCalibration fits o_copy/o_dupl per machine configuration against
// measured simulator cycle deltas and reports the fpint-calib/v1 result.
func printCalibration(c *ctx, calibOut string) error {
	cfgs := []uarch.Config{uarch.Config4Way(), uarch.Config8Way()}
	calib, err := c.s.Calibrate(bench.IntWorkloads(), cfgs)
	if err != nil {
		return err
	}
	c.record("calibration", "cost model", calib.Configs)
	var out [][]string
	for _, f := range calib.Configs {
		rng := "outside paper range"
		if f.InPaperRange {
			rng = "in paper range"
		}
		out = append(out, []string{f.Config,
			fmt.Sprintf("%.1f", f.OCopy),
			fmt.Sprintf("%.1f", f.ODupl),
			fmt.Sprintf("%.3f", f.CyclesPerProfit),
			fmt.Sprintf("%.3f", f.R2),
			rng})
	}
	c.table([]string{"Config", "o_copy", "o_dupl", "cycles/profit", "R^2", "Paper: o_copy in [3,6], o_dupl in [1.5,3]"}, out)
	for _, f := range calib.Configs {
		if p, ok := calib.Params(f.Config); ok {
			c.note("%s: partitions built from this fit carry audit note %q", f.Config, "cost model: "+p.Provenance)
		}
	}
	if calibOut != "" {
		if err := writeTo(calibOut, calib.WriteJSON); err != nil {
			return fperr.Wrap(fperr.ClassInput, err)
		}
		if calibOut != "-" {
			c.note("wrote %s document to %s", bench.CalibVersion, calibOut)
		}
	}
	return nil
}

// printFaultSweep reports the per-scheme fault-sensitivity sweep: cycles
// lost to detection and recovery, per workload, scheme, and configuration.
func printFaultSweep(c *ctx, fc faultinject.Config) error {
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		rows, err := c.s.FaultSensitivity(bench.IntWorkloads(), cfg, fc)
		if err != nil {
			return err
		}
		c.record("fault_sensitivity_"+cfg.Name, "robustness", rows)
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{r.Workload, r.Scheme, r.Config,
				fmt.Sprintf("%d", r.Faults),
				fmt.Sprintf("%d", r.RecoveryCycles),
				fmt.Sprintf("%d", r.CleanCycles),
				fmt.Sprintf("%d", r.FaultCycles),
				fmt.Sprintf("%+5.2f%%", r.SlowdownPct)})
		}
		c.table([]string{"Benchmark", "Scheme", "Config", "Faults", "Recovery cyc", "Clean cyc", "Fault cyc", "Slowdown"}, out)
	}
	c.note("\nEvery injected run is checked to produce the reference output with a closed\nstall ledger: faults cost recovery cycles, never correctness (seed=%d rate=%g).", fc.Seed, fc.Rate)
	return nil
}

// ctx carries the shared suite plus the optional JSON report each
// experiment contributes its rows to.
type ctx struct {
	s     *bench.Suite
	rep   *bench.Report
	quiet bool
}

// record adds one experiment's rows to the report, if one was requested.
func (c *ctx) record(name, section string, rows any) {
	if c.rep != nil {
		c.rep.Add(name, section, rows)
	}
}

// table prints a formatted table unless table output is suppressed.
func (c *ctx) table(header []string, rows [][]string) {
	if !c.quiet {
		fmt.Print(bench.FormatTable(header, rows))
	}
}

// note prints a trailing comparison-with-the-paper line.
func (c *ctx) note(format string, args ...any) {
	if !c.quiet {
		fmt.Printf(format+"\n", args...)
	}
}

func printTable1(c *ctx) error {
	cfgs := []uarch.Config{uarch.Config4Way(), uarch.Config8Way()}
	var rows [][]string
	add := func(name string, f func(uarch.Config) string) {
		row := []string{name}
		for _, cfg := range cfgs {
			row = append(row, f(cfg))
		}
		rows = append(rows, row)
	}
	add("Fetch width", func(c uarch.Config) string { return fmt.Sprintf("any %d instructions", c.FetchWidth) })
	add("I-cache", func(c uarch.Config) string {
		return fmt.Sprintf("%dKB, %d-way, %dB lines, %dc hit, %dc miss", c.ICacheSize/1024, c.ICacheWays, c.ICacheLine, c.ICacheHit, c.ICacheMissPenalty)
	})
	add("Branch predictor", func(c uarch.Config) string {
		return fmt.Sprintf("gshare, %dK 2-bit counters, %d-bit history", c.BpredCounters/1024, c.BpredHistory)
	})
	add("Decode/rename width", func(c uarch.Config) string { return fmt.Sprintf("any %d instructions", c.DecodeWidth) })
	add("Issue window", func(c uarch.Config) string { return fmt.Sprintf("%d int + %d fp", c.IntWindow, c.FpWindow) })
	add("Max in-flight", func(c uarch.Config) string { return fmt.Sprintf("%d", c.MaxInFlight) })
	add("Retire width", func(c uarch.Config) string { return fmt.Sprintf("%d", c.RetireWidth) })
	add("Functional units", func(c uarch.Config) string { return fmt.Sprintf("%d int + %d fp", c.IntALUs, c.FpALUs) })
	add("FU latency", func(uarch.Config) string { return "6c mul, 12c div, 1c other int; FPa int ops 1c" })
	add("Issue mechanism", func(c uarch.Config) string { return fmt.Sprintf("up to %d ops/cycle, out-of-order", c.IssueWidth) })
	add("Physical registers", func(c uarch.Config) string { return fmt.Sprintf("%d int + %d fp", c.IntPhysRegs, c.FpPhysRegs) })
	add("D-cache", func(c uarch.Config) string {
		return fmt.Sprintf("%dKB, %d-way, %dB lines, WB/WA, %dc hit, %dc miss", c.DCacheSize/1024, c.DCacheWays, c.DCacheLine, c.DCacheHit, c.DCacheMissPenalty)
	})
	add("Load/store ports", func(c uarch.Config) string { return fmt.Sprintf("%d", c.LdStPorts) })
	c.record("table1_machine_parameters", "§7/Table 1", rows)
	c.table([]string{"Parameter", "4-way", "8-way"}, rows)
	return nil
}

func printTable2(c *ctx) error {
	type row struct {
		Workload string `json:"workload"`
		Class    string `json:"class"`
		Input    string `json:"input"`
	}
	var jrows []row
	var rows [][]string
	for _, w := range bench.Workloads() {
		jrows = append(jrows, row{w.Name, w.Class, w.Input})
		rows = append(rows, []string{w.Name, w.Class, w.Input})
	}
	c.record("table2_benchmarks", "§7/Table 2", jrows)
	c.table([]string{"Benchmark", "Class", "Input"}, rows)
	return nil
}

func printSlices(c *ctx) error {
	rows, err := c.s.SliceStats(bench.IntWorkloads())
	if err != nil {
		return err
	}
	c.record("slice_weights", "§4", rows)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Workload,
			fmt.Sprintf("%5.1f%%", r.LdStPct),
			fmt.Sprintf("%5.1f%%", r.BranchPct),
			fmt.Sprintf("%5.1f%%", r.StoreValPct)})
	}
	c.table([]string{"Benchmark", "LdSt slice", "Branch slice", "StoreVal slice"}, out)
	c.note("\nPaper: LdSt slices of integer programs account for close to 50%% of dynamic instructions.")
	return nil
}

func printFig8(c *ctx) error {
	rows, err := c.s.FigurePartitionSizes(bench.IntWorkloads())
	if err != nil {
		return err
	}
	c.record("fig8_partition_sizes", "§7.1/Fig. 8", rows)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Workload,
			fmt.Sprintf("%5.1f%%", r.BasicPct),
			fmt.Sprintf("%5.1f%%", r.AdvancedPct),
			bar(r.BasicPct), bar(r.AdvancedPct)})
	}
	c.table([]string{"Benchmark", "Basic", "Advanced", "basic", "advanced"}, out)
	c.note("\nPaper: basic offloads 5%%–29%%, advanced offloads 9%%–41%% of dynamic instructions.")
	return nil
}

func printFig9(c *ctx) error {
	return printSpeedups(c, uarch.Config4Way(), "fig9_speedups_4way", "§7.1/Fig. 9", "2.5%–23.1%")
}

func printFig10(c *ctx) error {
	return printSpeedups(c, uarch.Config8Way(), "fig10_speedups_8way", "§7.4/Fig. 10", "smaller than on the 4-way machine")
}

func printSpeedups(c *ctx, cfg uarch.Config, name, section, paper string) error {
	rows, err := c.s.FigureSpeedups(bench.IntWorkloads(), cfg)
	if err != nil {
		return err
	}
	c.record(name, section, rows)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Workload,
			fmt.Sprintf("%+5.1f%%", r.BasicPct),
			fmt.Sprintf("%+5.1f%%", r.AdvancedPct),
			fmt.Sprintf("%d", r.BaseCycles),
			fmt.Sprintf("%d", r.AdvCycles)})
	}
	c.table([]string{"Benchmark", "Basic", "Advanced", "Base cycles", "Adv cycles"}, out)
	c.note("\nPaper (%s machine): improvements %s.", cfg.Name, paper)
	return nil
}

func printOverheads(c *ctx) error {
	rows, err := c.s.Overheads(bench.IntWorkloads())
	if err != nil {
		return err
	}
	c.record("overheads", "§7.2", rows)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Workload,
			fmt.Sprintf("%+5.2f%%", r.DynGrowthPct),
			fmt.Sprintf("%5.2f%%", r.CopyPct),
			fmt.Sprintf("%5.2f%%", r.DupPct),
			fmt.Sprintf("%+5.2f%%", r.StaticGrowthPct)})
	}
	c.table([]string{"Benchmark", "Dyn growth", "Copies", "Dups", "Static growth"}, out)
	c.note("\nPaper: max dynamic increase 4%% (compress: 3.4%% copies + 0.6%% dups); static growth negligible.")
	return nil
}

func printLoads(c *ctx) error {
	rows, err := c.s.LoadChanges(bench.IntWorkloads())
	if err != nil {
		return err
	}
	c.record("load_changes", "§6.6", rows)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Workload, fmt.Sprintf("%+5.2f%%", r.LoadDeltaPct)})
	}
	c.table([]string{"Benchmark", "Load delta (adv vs base)"}, out)
	c.note("\nPaper: loads decreased 3.7%% for go, increased 2.6%% for gcc.")
	return nil
}

func printImbalance(c *ctx) error {
	rows, err := c.s.Imbalance(bench.IntWorkloads(), uarch.Config4Way())
	if err != nil {
		return err
	}
	c.record("imbalance", "§7.3", rows)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Workload,
			fmt.Sprintf("%5.1f%%", r.OffloadPct),
			fmt.Sprintf("%5.1f%%", r.IntIdleFPaBusyPct)})
	}
	c.table([]string{"Benchmark", "Offload", "INT idle & FPa busy (cycles)"}, out)
	c.note("\nPaper: for m88ksim the INT subsystem is idle 12.4%% of the cycles in which\nFPa executes — greedy partitioning does not balance load (§7.3/§6.6).")
	return nil
}

// printPhases reports the segmented phase timeline of every integer
// workload under the advanced scheme: where each program's behaviour
// shifts, the FPa occupancy the dynamic-selection sensor would read, and
// which stall cause dominated. In fast mode the phases describe the
// sampled detailed windows and are marked estimated.
func printPhases(c *ctx, width int64) error {
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		rows, err := c.s.Phases(bench.IntWorkloads(), cfg, width)
		if err != nil {
			return err
		}
		c.record("phases_"+cfg.Name, "phase timeline", rows)
		var out [][]string
		for _, r := range rows {
			est := ""
			if r.Estimated {
				est = " (est)"
			}
			out = append(out, []string{r.Workload, r.Config,
				fmt.Sprintf("%d", r.Phase), r.Windows,
				fmt.Sprintf("%d%s", r.Cycles, est),
				fmt.Sprintf("%5.2f", r.IPC),
				fmt.Sprintf("%5.3f", r.FPaOcc),
				fmt.Sprintf("%5.1f%%", 100*r.OffloadRatio),
				fmt.Sprintf("%s %4.1f%%", r.DominantStall, 100*r.DominantStallFrac)})
		}
		c.table([]string{"Benchmark", "Config", "Phase", "Windows", "Cycles", "IPC", "FPa occ", "Offload", "Dominant stall"}, out)
	}
	c.note("\nPhases are change-points in the windowed occupancy/stall mix (width=%d\ncycles); FPa occ is the per-cycle FPa issue rate the dynamic scheme-selection\nsensor (ROADMAP item 3) reads. Diff two runs with `fpistat phasediff`.", width)
	return nil
}

func printFpProgs(c *ctx) error {
	rows, err := c.s.FPProgramRows()
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Workload,
			fmt.Sprintf("%5.1f%%", r.OffloadPct),
			fmt.Sprintf("%+5.1f%%", r.SpeedupPct)})
	}
	c.record("fp_programs", "§7.5", rows)
	c.table([]string{"Benchmark", "Advanced offload", "Advanced speedup (4-way)"}, out)
	c.note("\nPaper: FP programs ~neutral, except ear: 18%% offload and 18%% speedup.")
	return nil
}

func bar(pct float64) string {
	n := int(pct / 2)
	if n < 0 {
		n = 0
	}
	if n > 40 {
		n = 40
	}
	s := ""
	for i := 0; i < n; i++ {
		s += "#"
	}
	return s
}

// writeTo streams enc to path, with "-" meaning stdout.
func writeTo(path string, enc func(w io.Writer) error) error {
	if path == "-" {
		return enc(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := enc(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
