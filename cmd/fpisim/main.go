// Command fpisim compiles a mini-C program and runs it on the functional
// simulator and, optionally, the cycle-level timing model of both machine
// configurations.
//
// Usage:
//
//	fpisim [-scheme advanced] [-timing] [-config 4way] file.c
//	fpisim -workload compress -timing -compare
//	fpisim -workload compress -timing -json -              # metrics as JSON
//	fpisim -workload compress -timing -pipetrace-json t.json  # Perfetto trace
//	fpisim -profile file.c                 # hot-function/hot-line tables
//	fpisim -annotate file.c                # source with per-line cycles
//	fpisim -folded out.folded file.c       # flamegraph folded stacks
//	fpisim -pprof out.pb.gz file.c         # pprof protobuf profile
//	fpisim -inject-fault seed=1,kind=any,rate=0.001 file.c  # fault injection
//	fpisim -timing -hostmetrics file.c     # simulator's own host-side cost
//	fpisim -fast file.c                    # sampled-timing fast mode
//	fpisim -fast -fast-period 16 file.c    # start sampling sparser
//	fpisim -timeline file.c                # windowed phase timeline + table
//	fpisim -timeline-csv t.csv file.c      # plot-ready per-window CSV
//	fpisim -timeline-json t.json file.c    # fpint-timeline/v1 document
//
// The phase timeline (-timeline/-timeline-csv/-timeline-json, implying
// -timing) arms the pipeline's flight recorder: fixed-width cycle windows
// of occupancy, stall-mix, and offload telemetry, segmented into program
// phases by online change-point detection. With -pipetrace-json the
// windows also become Perfetto counter tracks merged into the trace
// alongside the per-instruction spans and the compiler's pass spans, so
// one compile+simulate job emits a single unified trace. Timelines work
// under -fast too: the windows then cover only the detailed sampling
// windows and the document is flagged as estimated.
//
// Fault injection (-inject-fault, implies -timing) drives the seeded
// transient-fault model of internal/faultinject: same seed, same program ⇒
// byte-identical fault trace (printable with -fault-trace). Faults cost
// recovery cycles, never correctness — the architectural output is computed
// by the functional simulator and is unaffected by timing-model faults.
//
// The fast mode (-fast, implies -timing) replaces the full detailed run
// with SMARTS-style periodic sampling: most instructions execute
// functionally (still training the branch predictor and caches) and only
// periodic detailed windows are timed, extrapolated to a total cycle
// estimate with a closed stall ledger. Sampling starts at -fast-period and
// the period doubles (up to 32) each time a stratum's mean CPI is known to
// within 1% at 99.7% confidence; the final period and the estimate's
// relative confidence half-width are reported. The functional output is
// bit-identical to the detailed model; cycles carry a bounded estimation
// error (see the root fast-mode acceptance test). Detailed-only surfaces —
// pipetraces, cycle attribution, fault injection — are rejected under
// -fast because the windows are discontinuous.
//
// Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error,
// 4 ran successfully but with a degraded (fallen-back) compile scheme.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"fpint/internal/analysis"
	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/faultinject"
	"fpint/internal/fperr"
	"fpint/internal/obs"
	"fpint/internal/obs/hostmetrics"
	"fpint/internal/obs/profile"
	"fpint/internal/obs/timeline"
	"fpint/internal/sim"
	"fpint/internal/uarch"
)

func main() {
	err := fpisimMain(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpisim: %v\n", err)
	}
	os.Exit(fperr.ExitCode(err))
}

func fpisimMain(args []string) error {
	fs := flag.NewFlagSet("fpisim", flag.ContinueOnError)
	var (
		schemeName   = fs.String("scheme", "advanced", "partitioning scheme: "+strings.Join(codegen.SchemeNames(), ", "))
		analysisMode = fs.String("analysis", "off", "consult the alias/value-range analyses to unpin provably safe load/store addresses: on or off")
		timing       = fs.Bool("timing", false, "run the cycle-level timing model")
		configName   = fs.String("config", "4way", "machine configuration: "+strings.Join(uarch.ConfigNames(), ", "))
		compare      = fs.Bool("compare", false, "run all three schemes and report speedups")
		workload     = fs.String("workload", "", "run a named built-in workload instead of a file")
		pipetrace    = fs.Int("pipetrace", 0, "with -timing: dump the pipeline journal of the first N instructions")
		traceJSON    = fs.String("pipetrace-json", "", "with -timing: write the pipeline journal as Chrome trace-event JSON to the given file")
		jsonOut      = fs.String("json", "", "write run metrics as deterministic JSON to the given file (\"-\" for stdout, suppressing normal output)")
		csvOut       = fs.String("csv", "", "write run metrics as CSV to the given file (\"-\" for stdout, suppressing normal output)")
		interproc    = fs.Bool("interproc", false, "enable the §6.6 interprocedural FP-argument extension")
		profileOut   = fs.Bool("profile", false, "print hot-function and hot-line cycle-attribution tables (implies -timing)")
		annotate     = fs.Bool("annotate", false, "print the source annotated with per-line cycles, offload fraction, and copy/dup overhead (implies -timing)")
		foldedOut    = fs.String("folded", "", "write folded-stack cycle attribution for flamegraph tooling to the given file (\"-\" for stdout; implies -timing)")
		pprofOut     = fs.String("pprof", "", "write a gzipped pprof protobuf profile to the given file (implies -timing)")
		injectSpec   = fs.String("inject-fault", "", "inject transient faults: \"seed=N,kind=K,rate=R\" (implies -timing)")
		faultTrace   = fs.Bool("fault-trace", false, "with -inject-fault: print the deterministic fault trace")
		hostMetrics  = fs.Bool("hostmetrics", false, "measure the simulator's own host-side cost (wall time, allocations, GC) around the run")
		fast         = fs.Bool("fast", false, "sampled-timing fast mode: periodic detailed windows instead of the full cycle-level run (implies -timing)")
		fastPeriod   = fs.Int("fast-period", 0, "with -fast: starting sampling period in units, one in N measured; it doubles as the estimate converges (0 = default)")
		fastWidth    = fs.Int("fast-width", 0, "with -fast: sampling-unit width in instructions (0 = default)")
		fastWarmup   = fs.Int("fast-warmup", 0, "with -fast: detailed warmup instructions before each measured unit (0 = default, negative = none)")
		fastSeed     = fs.Uint64("fast-seed", 1, "with -fast: sampling phase seed")
		timelineOut  = fs.Bool("timeline", false, "record a windowed phase timeline and print the per-phase table (implies -timing)")
		tlWidth      = fs.Int64("timeline-width", 0, "timeline window width in cycles (0 = default 1024)")
		tlCSV        = fs.String("timeline-csv", "", "write the plot-ready per-window timeline CSV to the given file (\"-\" for stdout; implies -timing)")
		tlJSON       = fs.String("timeline-json", "", "write the fpint-timeline/v1 JSON document to the given file (\"-\" for stdout; implies -timing)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fperr.Wrap(fperr.ClassUsage, err)
	}

	var src, srcName string
	if *workload != "" {
		w := bench.Lookup(*workload)
		if w == nil {
			return fperr.New(fperr.ClassUsage, "unknown workload %q", *workload)
		}
		src = w.Src
		srcName = *workload + ".c"
	} else {
		if fs.NArg() != 1 {
			return fperr.New(fperr.ClassUsage, "usage: fpisim [flags] file.c  (or -workload NAME)")
		}
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fperr.Wrap(fperr.ClassInput, err)
		}
		src = string(data)
		srcName = fs.Arg(0)
	}

	cfg, err := uarch.ParseConfig(*configName)
	if err != nil {
		return err
	}
	sch, err := codegen.ParseScheme(*schemeName)
	if err != nil {
		return err
	}

	useAnalysis, err := analysis.ParseOnOff(*analysisMode)
	if err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	opts := codegen.Options{InterprocFPArgs: *interproc, Analysis: useAnalysis}

	var faultCfg *faultinject.Config
	if *injectSpec != "" {
		fc, err := faultinject.ParseSpec(*injectSpec)
		if err != nil {
			return fperr.Wrap(fperr.ClassUsage, err)
		}
		faultCfg = &fc
	}

	if !*timing && !*compare && !*fast && faultCfg == nil && (*pipetrace > 0 || *traceJSON != "") {
		fmt.Fprintln(os.Stderr, "fpisim: -pipetrace/-pipetrace-json require -timing; no trace will be produced")
	}

	var sample uarch.SampleConfig
	if *fast {
		sample = uarch.DefaultSampleConfig()
		if *fastPeriod > 0 {
			sample.Period = *fastPeriod
		}
		if *fastWidth > 0 {
			sample.Width = *fastWidth
		}
		if *fastWarmup != 0 {
			sample.Warmup = *fastWarmup
		}
		sample.Seed = *fastSeed
		switch {
		case *pipetrace > 0 || *traceJSON != "":
			return fperr.New(fperr.ClassUsage, "-fast cannot produce a pipeline trace: the detailed windows are discontinuous")
		case *profileOut || *annotate || *foldedOut != "" || *pprofOut != "":
			return fperr.New(fperr.ClassUsage, "-fast does not support cycle attribution (-profile/-annotate/-folded/-pprof); use the detailed model")
		case faultCfg != nil:
			return fperr.New(fperr.ClassUsage, "-fast does not support fault injection; use the detailed model")
		}
	}

	if *compare {
		var baseCycles int64
		for _, s := range []codegen.Scheme{codegen.SchemeNone, codegen.SchemeBasic, codegen.SchemeAdvanced} {
			r := runConfig{cfg: cfg, timing: true, faultCfg: faultCfg, fast: *fast, sample: sample}
			cycles, offl, err := run(src, s, opts, r)
			if err != nil {
				return err
			}
			name := codegen.SchemeNames()[s]
			if s == codegen.SchemeNone {
				baseCycles = cycles
				fmt.Printf("%-10s cycles=%-10d offload=%4.1f%%\n", name, cycles, offl*100)
				continue
			}
			fmt.Printf("%-10s cycles=%-10d offload=%4.1f%%  speedup=%+.1f%%\n",
				name, cycles, offl*100, 100*(float64(baseCycles)/float64(cycles)-1))
		}
		return nil
	}
	rc := runConfig{
		cfg: cfg, timing: *timing, pipetrace: *pipetrace,
		traceJSON: *traceJSON, jsonOut: *jsonOut, csvOut: *csvOut,
		profile: *profileOut, annotate: *annotate,
		foldedOut: *foldedOut, pprofOut: *pprofOut,
		srcName: srcName, faultCfg: faultCfg, faultTrace: *faultTrace,
		hostMetrics: *hostMetrics, fast: *fast, sample: sample,
		timeline: *timelineOut, tlWidth: *tlWidth, tlCSV: *tlCSV, tlJSON: *tlJSON,
	}
	if rc.wantProfile() || rc.faultCfg != nil || rc.fast || rc.wantTimeline() {
		rc.timing = true // attribution, fault injection, sampling, and timelines need the cycle-level model
	}
	_, _, err = run(src, sch, opts, rc)
	return err
}

type runConfig struct {
	cfg         uarch.Config
	timing      bool
	pipetrace   int
	traceJSON   string
	jsonOut     string
	csvOut      string
	profile     bool
	annotate    bool
	foldedOut   string
	pprofOut    string
	srcName     string
	faultCfg    *faultinject.Config
	faultTrace  bool
	hostMetrics bool
	fast        bool
	sample      uarch.SampleConfig
	timeline    bool
	tlWidth     int64
	tlCSV       string
	tlJSON      string
}

// defaultTimelineWidth is the window width (in cycles) used when
// -timeline-width is 0.
const defaultTimelineWidth = 1024

// wantTimeline reports whether any output needs the flight recorder.
func (rc *runConfig) wantTimeline() bool {
	return rc.timeline || rc.tlCSV != "" || rc.tlJSON != ""
}

// timelineWidth resolves the recorder's window width.
func (rc *runConfig) timelineWidth() int64 {
	if rc.tlWidth > 0 {
		return rc.tlWidth
	}
	return defaultTimelineWidth
}

// wantProfile reports whether any output needs per-PC cycle attribution.
func (rc *runConfig) wantProfile() bool {
	return rc.profile || rc.annotate || rc.foldedOut != "" || rc.pprofOut != ""
}

// quiet reports whether human-readable output is suppressed (a metrics or
// profile document is being streamed to stdout instead).
func (rc *runConfig) quiet() bool {
	return rc.jsonOut == "-" || rc.csvOut == "-" || rc.foldedOut == "-"
}

func run(src string, sch codegen.Scheme, opts codegen.Options, rc runConfig) (int64, float64, error) {
	opts.Scheme = sch
	if rc.traceJSON != "" {
		// A traced job carries the compiler's pass spans alongside the
		// simulation tracks, making one unified trace per compile+simulate.
		opts.PassLog = &obs.PassLog{}
	}
	res, _, err := codegen.CompileSourceWithFallback(src, opts)
	if err != nil {
		return 0, 0, err
	}
	if res.Fallback != nil {
		fmt.Fprintf(os.Stderr, "fpisim: warning: %s scheme failed, degraded to %s\n",
			res.Fallback.Requested, res.Fallback.Used)
	}

	// One machine serves detailed and fast runs; the detailed-only probes
	// stay unarmed under -fast because fpisimMain rejects their flags.
	var fm *uarch.Machine
	var fsim *sim.Machine
	var plan *faultinject.Plan
	if rc.timing {
		fm = uarch.NewMachine(rc.cfg)
		if rc.wantTimeline() || rc.traceJSON != "" {
			// A Perfetto trace gets counter tracks even without -timeline.
			fm.SetTimelineWidth(rc.timelineWidth())
		}
		limit := rc.pipetrace
		if rc.traceJSON != "" && limit == 0 {
			limit = 1 << 20
		}
		fm.SetJournalLimit(limit)
		fm.SetProfiling(rc.wantProfile())
		if rc.faultCfg != nil {
			plan = faultinject.NewPlan(*rc.faultCfg)
			fm.SetFaultPlan(plan)
		}
	} else {
		fsim = sim.New(res.Prog)
	}
	// The measured region is the simulation proper — functional run plus
	// timing-model drain — excluding compilation and report rendering, so
	// the numbers match what the run-record store gates on.
	var out *sim.Result
	var st uarch.Stats
	var sst uarch.SampledStats
	var runErr error
	simulate := func() {
		switch {
		case rc.fast:
			out, sst, runErr = fm.RunSampled(res.Prog, rc.sample)
			st = sst.Stats
		case rc.timing:
			out, st, runErr = fm.Run(res.Prog)
		default:
			out, runErr = fsim.Run()
		}
	}
	var hostSample hostmetrics.Sample
	if rc.hostMetrics {
		hostSample = hostmetrics.Measure(simulate)
	} else {
		simulate()
	}
	if runErr != nil {
		return 0, 0, fperr.Wrap(fperr.ClassInput, runErr)
	}

	// Build the timeline document (and its phases) once for every surface
	// that needs it: trace counter tracks, JSON/CSV exports, the registry
	// envelope, and the human phase table.
	var tl *timeline.Timeline
	var phases []timeline.Phase
	var journal *uarch.Journal
	var cycleProf *uarch.CycleProfile
	if fm != nil {
		tl, journal, cycleProf = fm.Timeline(rc.srcName), fm.Journal(), fm.Profile()
	}
	if tl != nil {
		if rc.fast && !sst.Exact {
			tl.Estimated = true
			tl.SampledFraction = sst.SampledFraction
		}
		phases = tl.Segment(timeline.DefaultSegConfig())
	}

	if journal != nil && rc.traceJSON != "" {
		// One unified trace: per-instruction spans (pid 1), timeline
		// counter tracks (pid 1), compiler pass spans (pid 2).
		events := journal.TraceEvents()
		if tl != nil {
			events = append(events, tl.CounterEvents(1)...)
		}
		events = append(events, opts.PassLog.TraceEvents(2)...)
		obs.SortEventsByTs(events)
		err := writeTo(rc.traceJSON, func(w io.Writer) error {
			return obs.WriteTrace(w, events)
		})
		if err != nil {
			return 0, 0, fperr.Wrap(fperr.ClassInput, err)
		}
	}
	if tl != nil && rc.tlJSON != "" {
		if err := writeTo(rc.tlJSON, tl.WriteJSON); err != nil {
			return 0, 0, fperr.Wrap(fperr.ClassInput, err)
		}
	}
	if tl != nil && rc.tlCSV != "" {
		if err := writeTo(rc.tlCSV, tl.WriteCSV); err != nil {
			return 0, 0, fperr.Wrap(fperr.ClassInput, err)
		}
	}
	if cycleProf != nil {
		pr := profile.Build(res.Prog, cycleProf)
		if rc.foldedOut != "" {
			err := writeTo(rc.foldedOut, func(w io.Writer) error {
				profile.WriteFolded(w, pr)
				return nil
			})
			if err != nil {
				return 0, 0, fperr.Wrap(fperr.ClassInput, err)
			}
		}
		if rc.pprofOut != "" {
			err := writeTo(rc.pprofOut, func(w io.Writer) error {
				return profile.WritePprof(w, pr, rc.srcName)
			})
			if err != nil {
				return 0, 0, fperr.Wrap(fperr.ClassInput, err)
			}
		}
		if rc.profile && !rc.quiet() {
			fmt.Printf("=== hot functions (%s, %s) ===\n", sch, rc.cfg.Name)
			profile.WriteHotFuncs(os.Stdout, pr, 0)
			fmt.Printf("=== hot lines ===\n")
			profile.WriteHotLines(os.Stdout, pr, 20)
		}
		if rc.annotate && !rc.quiet() {
			fmt.Printf("=== annotated source (%s, %s) ===\n", sch, rc.cfg.Name)
			profile.WriteAnnotated(os.Stdout, pr, src)
		}
	}
	if rc.jsonOut != "" || rc.csvOut != "" {
		reg := obs.NewRegistry()
		reg.Gauge(obs.MetricRunExit).Set(float64(out.Ret))
		out.Stats.AddTo(reg, obs.PrefixSim)
		switch {
		case rc.fast:
			sst.AddTo(reg, obs.PrefixUarch)
		case rc.timing:
			st.AddTo(reg, obs.PrefixUarch)
		}
		if tl != nil {
			reg.Gauge(obs.PrefixTimeline + obs.MetricTimelineWindows).Set(float64(len(tl.Windows)))
			reg.Gauge(obs.PrefixTimeline + obs.MetricTimelineWindowWidth).Set(float64(tl.WindowWidth))
			estimated := 0.0
			if tl.Estimated {
				estimated = 1
			}
			reg.Gauge(obs.PrefixTimeline + obs.MetricTimelineEstimated).Set(estimated)
			reg.Gauge(obs.PrefixPhase + obs.MetricPhaseCount).Set(float64(len(phases)))
		}
		if rc.hostMetrics {
			hostSample.AddTo(reg, obs.PrefixHost)
			if rc.timing {
				reg.Gauge(obs.PrefixHost + obs.MetricHostSimsPerSec).Set(hostmetrics.SimsPerSec(st.Cycles, hostSample.WallNS))
			}
		}
		if rc.jsonOut != "" {
			if err := writeTo(rc.jsonOut, reg.WriteJSON); err != nil {
				return 0, 0, fperr.Wrap(fperr.ClassInput, err)
			}
		}
		if rc.csvOut != "" {
			if err := writeTo(rc.csvOut, reg.WriteCSV); err != nil {
				return 0, 0, fperr.Wrap(fperr.ClassInput, err)
			}
		}
	}
	if rc.quiet() {
		return st.Cycles, out.Stats.OffloadFraction(), res.DegradedError()
	}

	if !rc.timing {
		fmt.Print(out.Output)
		fmt.Printf("; exit=%d dynamic=%d offload=%.1f%% (INT=%d FP=%d FPa=%d)\n",
			out.Ret, out.Stats.Total, 100*out.Stats.OffloadFraction(),
			out.Stats.BySubsys[0], out.Stats.BySubsys[1], out.Stats.BySubsys[2])
		if rc.hostMetrics {
			fmt.Printf("; host: %s\n", hostSample)
		}
		return 0, out.Stats.OffloadFraction(), res.DegradedError()
	}
	if journal != nil && rc.pipetrace > 0 {
		fmt.Print(journal.String())
	}
	fmt.Print(out.Output)
	fmt.Printf("; exit=%d dynamic=%d cycles=%d IPC=%.2f offload=%.1f%%\n",
		out.Ret, out.Stats.Total, st.Cycles, st.IPC(), 100*out.Stats.OffloadFraction())
	fmt.Printf(";   bpred acc=%.3f  icache miss=%.4f  dcache miss=%.4f  int-idle/fpa-busy=%.3f\n",
		1-float64(st.BpredMispredicts)/float64(max64(st.BpredLookups, 1)),
		st.ICacheMissRate, st.DCacheMissRate,
		float64(st.IntIdleFPaBusy)/float64(max64(st.Cycles, 1)))
	fmt.Printf(";   issue-active=%d stall=%d (accounting error=%d)\n",
		st.IssueActiveCycles, st.TotalStallCycles(), st.StallAccountingError())
	if rc.fast {
		fmt.Printf(";   fast mode: windows=%d measured=%d/%d instrs (%.1f%% of stream) final_period=%d rel_ci=%.2f%% exact=%v\n",
			sst.Windows, sst.MeasuredInstructions, out.Stats.Total,
			100*sst.SampledFraction, sst.FinalPeriod, 100*sst.RelCI, sst.Exact)
	}
	if rc.hostMetrics {
		fmt.Printf(";   host: %s sims/sec=%.3g\n",
			hostSample, hostmetrics.SimsPerSec(st.Cycles, hostSample.WallNS))
	}
	if plan != nil {
		printFaultReport(plan, st)
		if rc.faultTrace {
			fmt.Print(plan.TraceString())
		}
	}
	if rc.timeline && tl != nil {
		printPhases(tl, phases, sch, rc.cfg.Name)
	}
	return st.Cycles, out.Stats.OffloadFraction(), res.DegradedError()
}

// printPhases renders the segmenter's phase table.
func printPhases(tl *timeline.Timeline, phases []timeline.Phase, sch codegen.Scheme, cfgName string) {
	mode := ""
	if tl.Estimated {
		mode = ", estimated from sampled windows"
	}
	fmt.Printf("=== phases (%s, %s; %d windows of %d cycles%s) ===\n",
		sch, cfgName, len(tl.Windows), tl.WindowWidth, mode)
	fmt.Printf("%3s  %-11s %12s %7s %8s %8s  %s\n",
		"id", "windows", "cycles", "ipc", "fpa-occ", "offload", "dominant-stall")
	for _, p := range phases {
		fmt.Printf("%3d  %4d-%-6d %12d %7.2f %8.3f %7.1f%%  %s (%.1f%%)\n",
			p.ID, p.FirstWindow, p.LastWindow, p.Cycles, p.IPC, p.FPaOcc,
			100*p.OffloadRatio, p.DominantStall, 100*p.DominantStallFrac)
	}
}

// printFaultReport summarizes the injected-fault trace per kind.
func printFaultReport(plan *faultinject.Plan, st uarch.Stats) {
	sum := plan.Summarize()
	fmt.Printf(";   faults injected=%d recovery-cycles=%d fetch-stalls=%d (seed=%d rate=%g)\n",
		sum.Injected, sum.RecoveryCycles, st.FetchFaultStalls,
		plan.Config().Seed, plan.Config().Rate)
	kinds := make([]string, 0, len(sum.ByKind))
	for k := range sum.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf(";     %-14s %d\n", k, sum.ByKind[k])
	}
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

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
