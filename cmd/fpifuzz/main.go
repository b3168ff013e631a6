// Command fpifuzz drives the differential-testing subsystem from the
// command line: it generates seeded random programs, cross-checks the IR
// interpreter against compiled code under every partition scheme (and,
// with -timing, the cycle-level model on both Table 1 machines), reduces
// any failure to a minimal reproducer, and writes it to -out.
//
// A sweep is fully deterministic in its flags, so CI runs
//
//	fpifuzz -n 200 -seed 1
//
// as a reproducible semantics audit of the whole pipeline.
//
// -inject plants a known partitioner bug (a component assignment flipped
// into FPa without its mandated copy) to demonstrate end-to-end that the
// oracle catches miscompiles and the reducer shrinks them.
//
// -fast additionally runs every timed scheme case through the
// sampled-timing fast mode and asserts fast-mode fidelity: functional
// output bit-identical to the reference and a closed extrapolated stall
// ledger. -inject-fast plants a fast-mode divergence (a corrupted sampled
// exit value) to demonstrate that the fast oracle catches it, persists it
// as a crasher with a `// fast: on` header, and replays it.
//
// -optimal (on by default) adds the exact branch-and-bound partition
// oracle as a scheme case: it must stay bit-exact with the reference and
// its profit must dominate the advanced scheme's. Crashers found with it
// carry a `// scheme: optimal` header and replay through the same case.
//
// -faults additionally runs every timed scheme case under seeded
// transient-fault injection (rate -fault-rate) and asserts that each
// detected-and-recovered run still produces architecturally correct output
// with a closed stall ledger and cycle profile.
//
// Exit codes: 0 clean sweep, 1 usage error, 2 input error, 3 the sweep
// found failures (an internal semantics bug).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"fpint/internal/analysis"
	"fpint/internal/difftest"
	"fpint/internal/faultinject"
	"fpint/internal/fperr"
)

func main() {
	err := fpifuzzMain(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpifuzz: %v\n", err)
	}
	os.Exit(fperr.ExitCode(err))
}

func fpifuzzMain(args []string) error {
	fs := flag.NewFlagSet("fpifuzz", flag.ContinueOnError)
	var (
		n            = fs.Int("n", 100, "number of programs to generate and check")
		seed         = fs.Int64("seed", 1, "first seed; program i uses seed+i")
		analysisMode = fs.String("analysis", "on", "also run the analysis-sharpened basic/advanced scheme cases: on or off")
		stmts        = fs.Int("stmts", 0, "statement budget per program (0 = default)")
		traps        = fs.Bool("traps", false, "allow unguarded division (programs may trap; engines must agree)")
		timing       = fs.Bool("timing", true, "also drive the cycle-level model on 4-way and 8-way configs")
		optimal      = fs.Bool("optimal", true, "also run the exact branch-and-bound oracle scheme case")
		reduce       = fs.Bool("reduce", true, "reduce failures to minimal reproducers")
		out          = fs.String("out", "testdata/crashers", "directory for reproducer files")
		inject       = fs.Bool("inject", false, "plant a partitioner bug (flipped component assignment) to demo the oracle")
		fast         = fs.Bool("fast", false, "also check the sampled-timing fast mode on every timed case (requires -timing)")
		injectFast   = fs.Bool("inject-fast", false, "plant a fast-mode divergence to demo the fast oracle (requires -fast)")
		faults       = fs.Bool("faults", false, "run timed cases under seeded transient-fault injection (requires -timing)")
		faultRate    = fs.Float64("fault-rate", 0.002, "with -faults: per-instruction fault probability")
		verbose      = fs.Bool("v", false, "log every failure in full")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	if fs.NArg() != 0 {
		return fperr.New(fperr.ClassUsage, "unexpected arguments %v", fs.Args())
	}
	if *n < 1 {
		return fperr.New(fperr.ClassUsage, "-n %d: need at least one program", *n)
	}
	if *stmts < 0 {
		return fperr.New(fperr.ClassUsage, "-stmts %d is negative", *stmts)
	}

	gcfg := difftest.DefaultGenConfig()
	if *stmts > 0 {
		gcfg.MaxStmts = *stmts
	}
	gcfg.Traps = *traps

	o := difftest.DefaultOptions()
	o.Timing = *timing
	o.Optimal = *optimal
	useAnalysis, err := analysis.ParseOnOff(*analysisMode)
	if err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	o.Analysis = useAnalysis
	if *inject {
		o.PartitionHook = difftest.InjectFlip
	}
	if *fast {
		if !*timing {
			return fperr.New(fperr.ClassUsage, "-fast requires -timing")
		}
		o.FastTiming = true
	}
	if *injectFast {
		if !*fast {
			return fperr.New(fperr.ClassUsage, "-inject-fast requires -fast")
		}
		o.FastHook = difftest.InjectFastSkew
	}
	if *faults {
		if !*timing {
			return fperr.New(fperr.ClassUsage, "-faults requires -timing")
		}
		if !(*faultRate > 0 && *faultRate <= 1) { // NaN fails both comparisons
			return fperr.New(fperr.ClassUsage, "-fault-rate %g outside (0,1]", *faultRate)
		}
		o.Faults = &faultinject.Config{Seed: *seed, Kind: faultinject.KindAny, Rate: *faultRate}
	}

	res := difftest.Sweep(*seed, *n, gcfg, o, *reduce)
	fmt.Printf("fpifuzz: %d checked, %d skipped, %d failures (seeds %d..%d)\n",
		res.Ran, res.Skipped, len(res.Failures), *seed, *seed+int64(*n)-1)

	for _, f := range res.Failures {
		fmt.Printf("  seed %d: %v\n", f.Seed, f.Err)
		if f.Reduced != "" {
			fmt.Printf("    reduced to %d lines\n", strings.Count(f.Reduced, "\n"))
		}
		if *verbose {
			body := f.Reduced
			if body == "" {
				body = f.Src
			}
			fmt.Println(indent(body))
		}
		path, err := difftest.WriteCrasher(*out, f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpifuzz: writing reproducer: %v\n", err)
			continue
		}
		fmt.Printf("    reproducer: %s\n", path)
	}
	if len(res.Failures) > 0 {
		return fperr.New(fperr.ClassInternal, "%d of %d programs failed the oracle", len(res.Failures), res.Ran)
	}
	return nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "    | " + lines[i]
	}
	return strings.Join(lines, "\n")
}
