package fpint

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/interp"
	"fpint/internal/uarch"
)

// fastModeErrorBound is the acceptance bound on the sampled-timing cycle
// estimate, relative to the detailed model. README's "Fast mode" section
// quotes this number; keep them in sync.
const fastModeErrorBound = 0.05

// fastModeWorkloads are the named workloads the acceptance test adds to
// the testdata programs: long enough that the sampling period doubles, so
// they exercise the stratified estimate rather than a single stratum.
var fastModeWorkloads = []string{"compress", "li", "ijpeg", "gcc"}

// TestFastModeAcceptance is the fast mode's contract: on EVERY testdata
// program under ALL partitioning schemes, and on the named workloads in
// fastModeWorkloads under none and advanced, on BOTH Table 1 machine
// configurations, RunSampled with default sampling parameters must (a)
// produce functional output bit-identical to the IR interpreter and (b)
// estimate total cycles within fastModeErrorBound of the detailed model,
// with a closed extrapolated stall ledger. Setting FPINT_FASTMODE_REPORT to
// a file path additionally writes the full per-case error table (the CI
// error-bound artifact).
func TestFastModeAcceptance(t *testing.T) {
	files, err := filepath.Glob("testdata/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	type scheme struct {
		name string
		opts codegen.Options
	}
	allSchemes := []scheme{
		{"none", codegen.Options{Scheme: codegen.SchemeNone}},
		{"basic", codegen.Options{Scheme: codegen.SchemeBasic}},
		{"advanced", codegen.Options{Scheme: codegen.SchemeAdvanced}},
		{"balanced", codegen.Options{Scheme: codegen.SchemeBalanced, MaxFPaFraction: 0.3}},
	}
	type program struct {
		name, src string
		schemes   []scheme
	}
	var programs []program
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{strings.TrimSuffix(filepath.Base(file), ".c"), string(data), allSchemes})
	}
	for _, name := range fastModeWorkloads {
		programs = append(programs, program{name, bench.Lookup(name).Src, []scheme{allSchemes[0], allSchemes[2]}})
	}
	configs := []uarch.Config{uarch.Config4Way(), uarch.Config8Way()}

	type row struct {
		program, scheme, config string
		detailed, estimated     int64
		errPct                  float64
		sampledFraction         float64
		detailedFraction        float64
		finalPeriod             int
		relCI                   float64
		exact                   bool
	}
	var report []row

	for _, pr := range programs {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			mod, prof, err := codegen.FrontendPipeline(pr.src)
			if err != nil {
				t.Fatalf("frontend: %v", err)
			}
			ref, err := interp.New(mod).Run()
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			for _, sc := range pr.schemes {
				opts := sc.opts
				opts.Profile = prof
				res, err := codegen.Compile(mod, opts)
				if err != nil {
					t.Fatalf("%s: compile: %v", sc.name, err)
				}
				for _, cfg := range configs {
					_, det, err := uarch.Run(res.Prog, cfg)
					if err != nil {
						t.Fatalf("%s/%s: detailed: %v", sc.name, cfg.Name, err)
					}
					out, est, err := uarch.RunSampled(res.Prog, cfg, uarch.DefaultSampleConfig())
					if err != nil {
						t.Fatalf("%s/%s: sampled: %v", sc.name, cfg.Name, err)
					}
					// (a) Fast mode is full-fidelity functionally: output must
					// be bit-identical to the interpreter reference.
					if out.Ret != ref.Ret || out.Output != ref.Output {
						t.Errorf("%s/%s: fast-mode functional result diverges from interpreter: ret=%d want %d",
							sc.name, cfg.Name, out.Ret, ref.Ret)
					}
					// (b) Cycle estimate within the bound.
					errFrac := math.Abs(float64(est.Cycles)-float64(det.Cycles)) / float64(det.Cycles)
					if errFrac > fastModeErrorBound {
						t.Errorf("%s/%s: cycle estimate error %.2f%% exceeds %.0f%% bound (detailed %d, estimated %d, sampled %.0f%%)",
							sc.name, cfg.Name, errFrac*100, fastModeErrorBound*100,
							det.Cycles, est.Cycles, est.SampledFraction*100)
					}
					// Extrapolated ledger must close like the detailed one.
					if lerr := est.StallAccountingError(); lerr != 0 {
						t.Errorf("%s/%s: sampled stall ledger not closed: error %d", sc.name, cfg.Name, lerr)
					}
					if est.Instructions != det.Instructions {
						t.Errorf("%s/%s: instruction count %d, want exact %d", sc.name, cfg.Name, est.Instructions, det.Instructions)
					}
					report = append(report, row{
						program: pr.name, scheme: sc.name, config: cfg.Name,
						detailed: det.Cycles, estimated: est.Cycles,
						errPct:           errFrac * 100,
						sampledFraction:  est.SampledFraction,
						detailedFraction: float64(est.DetailedInstructions) / float64(est.Instructions),
						finalPeriod:      est.FinalPeriod,
						relCI:            est.RelCI,
						exact:            est.Exact,
					})
				}
			}
		})
	}

	if path := os.Getenv("FPINT_FASTMODE_REPORT"); path != "" && len(report) > 0 {
		sort.SliceStable(report, func(i, j int) bool { return report[i].errPct > report[j].errPct })
		var b strings.Builder
		fmt.Fprintf(&b, "fast-mode cycle-estimate error report (bound %.0f%%)\n", fastModeErrorBound*100)
		fmt.Fprintf(&b, "%-10s %-9s %-6s %12s %12s %8s %9s %9s %12s %7s %6s\n",
			"program", "scheme", "config", "detailed", "estimated", "err%", "sampled%", "detailed%", "final_period", "rel_ci%", "exact")
		for _, r := range report {
			fmt.Fprintf(&b, "%-10s %-9s %-6s %12d %12d %8.2f %9.1f %9.1f %12d %7.2f %6v\n",
				r.program, r.scheme, r.config, r.detailed, r.estimated, r.errPct,
				r.sampledFraction*100, r.detailedFraction*100, r.finalPeriod, r.relCI*100, r.exact)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Errorf("write report: %v", err)
		}
	}
}

// TestFastModeFetchStalls pins the extrapolated fetch-stall counters: like
// the ledger cells, they are snapshotted at each window's warmup/measure
// boundary, so warmup cycles do not inflate them and they land near the
// detailed model's counts.
func TestFastModeFetchStalls(t *testing.T) {
	const bound = 0.10
	for _, name := range []string{"gcc", "li"} {
		res, _, err := codegen.CompileSource(bench.Lookup(name).Src, codegen.Options{Scheme: codegen.SchemeAdvanced})
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
			_, det, err := uarch.Run(res.Prog, cfg)
			if err != nil {
				t.Fatalf("%s/%s: detailed: %v", name, cfg.Name, err)
			}
			_, est, err := uarch.RunSampled(res.Prog, cfg, uarch.DefaultSampleConfig())
			if err != nil {
				t.Fatalf("%s/%s: sampled: %v", name, cfg.Name, err)
			}
			for _, c := range []struct {
				counter       string
				detailed, got int64
			}{
				{"fetch_mispredict_stalls", det.FetchMispredictStalls, est.FetchMispredictStalls},
				{"fetch_icache_stalls", det.FetchICacheStalls, est.FetchICacheStalls},
			} {
				t.Logf("%s/%s %s: detailed %d, estimated %d", name, cfg.Name, c.counter, c.detailed, c.got)
				if math.Abs(float64(c.got-c.detailed)) > bound*float64(c.detailed) {
					t.Errorf("%s/%s %s: estimated %d, detailed %d (more than %.0f%% apart)",
						name, cfg.Name, c.counter, c.got, c.detailed, bound*100)
				}
			}
		}
	}
}
