// Command fpic is the compiler driver: it compiles a mini-C source file to
// the extended ISA, applying the selected partitioning scheme.
//
// Usage:
//
//	fpic [-scheme advanced] [-dump-ir] [-dump-rdg] [-dump-partition] [-S] [-lines] file.c
//	fpic -example          # compile the paper's Figure 3 gcc fragment
//	fpic -example -explain # per-component benefit/overhead/profit decisions
//	fpic -example -json -  # audit trail + pass log as JSON
//
// The compiler never crashes on a partitioner failure: every partition is
// checked by the static verifier, and a scheme that fails verification (or
// panics) degrades down the ladder — advanced → basic → conventional — with
// the fallback recorded in the audit trail and the -json document.
//
// Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error,
// 4 compiled successfully but with a degraded (fallen-back) scheme.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"fpint/internal/analysis"
	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/fperr"
	"fpint/internal/ir"
	"fpint/internal/obs"
	"fpint/internal/obs/profile"
	"fpint/internal/uarch"
)

const exampleSrc = `
int regs_invalidated_by_call = 12297829382473034410;
int reg_tick[66];
int deleted;
void delete_equiv_reg(int regno) { deleted += regno; }
void invalidate_for_call() {
	for (int regno = 0; regno < 66; regno++) {
		if (regs_invalidated_by_call & (1 << regno)) {
			delete_equiv_reg(regno);
			if (reg_tick[regno] >= 0) reg_tick[regno]++;
		}
	}
}
int main() {
	for (int i = 0; i < 66; i++) reg_tick[i] = i - 3;
	invalidate_for_call();
	return deleted;
}
`

func main() {
	err := fpicMain(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpic: %v\n", err)
	}
	os.Exit(fperr.ExitCode(err))
}

func fpicMain(args []string) error {
	fs := flag.NewFlagSet("fpic", flag.ContinueOnError)
	var (
		schemeName   = fs.String("scheme", "advanced", "partitioning scheme: "+strings.Join(codegen.SchemeNames(), ", "))
		analysisMode = fs.String("analysis", "off", "consult the alias/value-range analyses to unpin provably safe load/store addresses: on or off")
		dumpIR       = fs.Bool("dump-ir", false, "print the optimized IR")
		dumpRDG      = fs.Bool("dump-rdg", false, "print each function's register dependence graph")
		dumpPart     = fs.Bool("dump-partition", false, "print the partition assignment per RDG node")
		dumpDot      = fs.Bool("dot", false, "emit the RDG with partition coloring as Graphviz digraphs")
		asm          = fs.Bool("S", true, "print the generated assembly")
		example      = fs.Bool("example", false, "compile the built-in Figure 3 example")
		workload     = fs.String("workload", "", "compile a named built-in workload instead of a file")
		ocopy        = fs.Float64("ocopy", 4, "copy overhead o_copy (paper: 3-6)")
		odupl        = fs.Float64("odupl", 2, "duplicate overhead o_dupl (paper: 1.5-3)")
		calib        = fs.String("calib", "", "load fitted cost constants from a fpint-calib/v1 JSON document (fpibench -calibrate -calib-out), overriding -ocopy/-odupl")
		calibConfig  = fs.String("calib-config", "4way", "with -calib: machine configuration whose fit to use: "+strings.Join(uarch.ConfigNames(), ", "))
		lines        = fs.Bool("lines", false, "print a line-annotated disassembly (PC, source line, subsystem, IR op)")
		explain      = fs.Bool("explain", false, "print the partition-decision audit trail per function")
		passes       = fs.Bool("passes", false, "print per-pass timing and IR instruction deltas")
		jsonOut      = fs.String("json", "", "write the audit trail, pass log, and per-function stats as JSON to the given file (\"-\" for stdout, suppressing normal output)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fperr.Wrap(fperr.ClassUsage, err)
	}

	// Every flag is checked before any file is read, so a bad flag is a
	// usage error whatever the state of the input file.
	var src, path string
	switch {
	case *example:
		src = exampleSrc
	case *workload != "":
		w := bench.Lookup(*workload)
		if w == nil {
			return fperr.New(fperr.ClassUsage, "unknown workload %q", *workload)
		}
		src = w.Src
	case fs.NArg() != 1:
		return fperr.New(fperr.ClassUsage, "usage: fpic [flags] file.c  (or -example / -workload NAME)")
	default:
		path = fs.Arg(0)
	}

	useAnalysis, err := analysis.ParseOnOff(*analysisMode)
	if err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}

	scheme, err := codegen.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	calibCfg, err := uarch.ParseConfig(*calibConfig)
	if err != nil {
		return err
	}

	cost := core.CostParams{OCopy: *ocopy, ODupl: *odupl}
	if *calib == "" {
		if err := checkCost(cost); err != nil {
			return fperr.Wrap(fperr.ClassUsage, err)
		}
	}

	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return fperr.Wrap(fperr.ClassInput, err)
		}
		src = string(data)
	}
	if *calib != "" {
		f, err := os.Open(*calib)
		if err != nil {
			return fperr.Wrap(fperr.ClassInput, err)
		}
		doc, err := bench.LoadCalibration(f)
		f.Close()
		if err != nil {
			return fperr.Wrapf(fperr.ClassInput, err, "%s", *calib)
		}
		p, ok := doc.Params(calibCfg.Name)
		if !ok {
			return fperr.New(fperr.ClassInput, "%s: no fit for configuration %q", *calib, calibCfg.Name)
		}
		if err := checkCost(p); err != nil {
			return fperr.Wrapf(fperr.ClassInput, err, "%s", *calib)
		}
		cost = p
	}

	quiet := *jsonOut == "-"
	var plog *obs.PassLog
	if *passes || *jsonOut != "" {
		plog = &obs.PassLog{}
	}

	mod, run, err := codegen.FrontendPipelineBudgeted(src, plog, codegen.FrontendBudget{})
	if err != nil {
		return fperr.Wrap(fperr.ClassInput, err)
	}
	if *dumpIR {
		fmt.Println("==== optimized IR ====")
		fmt.Print(mod.String())
	}
	res, err := codegen.CompileWithFallback(mod, codegen.Options{Scheme: scheme, Profile: run.Profile,
		Cost: cost, PassLog: plog, Analysis: useAnalysis})
	if err != nil {
		return err
	}
	if res.Fallback != nil {
		fmt.Fprintf(os.Stderr, "fpic: warning: %s scheme failed, degraded to %s\n",
			res.Fallback.Requested, res.Fallback.Used)
	}
	if *dumpRDG || *dumpPart || *dumpDot {
		// Dump the partitions the compile produced; under SchemeNone (or a
		// compile degraded to it) there are none, so build the RDG here.
		var facts *analysis.Facts
		if useAnalysis {
			facts = analysis.AnalyzeModule(mod)
		}
		for _, fn := range mod.Funcs {
			p := res.Partitions[fn.Name]
			var g *core.Graph
			if p != nil {
				g = p.G
			} else {
				var oracle core.AddrOracle
				if facts != nil {
					if ff := facts.Funcs[fn.Name]; ff != nil {
						oracle = ff
					}
				}
				g = core.BuildGraphWithOracle(fn, run.Profile, oracle)
			}
			if *dumpRDG {
				fmt.Print(g.String())
			}
			if *dumpDot {
				fmt.Print(core.DotGraph(g, p))
			}
			if *dumpPart && p != nil {
				fmt.Printf("==== partition of %s (%s) ====\n", fn.Name, p.Scheme)
				for _, n := range g.Nodes {
					where := "FP "
					if n.Class != core.ClassFixedFP {
						where = p.Assign[n.ID].String()
					}
					extra := ""
					if p.CopyNodes[n.ID] {
						extra = " +copy"
					}
					if p.DupNodes[n.ID] {
						extra = " +dup"
					}
					if p.OutCopyNodes[n.ID] {
						extra += " +outcopy"
					}
					desc := "param"
					if n.Instr != nil {
						desc = n.Instr.String()
					}
					fmt.Printf("  n%-3d %-4s %-10s%s  %s\n", n.ID, where, n.Kind, extra, desc)
				}
			}
		}
	}
	if *lines && !quiet {
		fmt.Println("==== line-annotated disassembly ====")
		profile.WriteListing(os.Stdout, res.Prog, func(op uint8) string { return ir.Op(op).String() })
	}
	if *explain && !quiet {
		for _, fn := range mod.Funcs {
			if p := res.Partitions[fn.Name]; p != nil && p.Audit != nil {
				fmt.Print(p.Audit.String())
			}
		}
	}
	if *passes && !quiet {
		fmt.Print(plog.String())
	}
	if *jsonOut != "" {
		if err := writeTo(*jsonOut, func(w io.Writer) error {
			return writeCompileJSON(w, scheme.String(), mod.Funcs, res, plog)
		}); err != nil {
			return fperr.Wrap(fperr.ClassInput, err)
		}
	}
	if quiet {
		return res.DegradedError()
	}
	if *asm {
		fmt.Println("==== assembly ====")
		fmt.Print(res.Prog.Disassemble())
	}
	fmt.Printf("; scheme=%s  static instructions=%d\n", scheme, len(res.Prog.Insts))
	for _, name := range bench.SortedFuncNames(res.Stats) {
		st := res.Stats[name]
		fmt.Printf(";   %-24s %4d insts, %d spill slots (%d reloads, %d stores)\n",
			name, st.StaticInsts, st.SpillSlots, st.SpillLoads, st.SpillStores)
	}
	return res.DegradedError()
}

// writeCompileJSON emits the -json compile report. The document itself
// lives in codegen (CompileReport) so the fpintd daemon serves the same
// shape.
func writeCompileJSON(w io.Writer, scheme string, fns []*ir.Func, res *codegen.Result, plog *obs.PassLog) error {
	return codegen.BuildCompileReport(scheme, fns, res, plog).WriteJSON(w)
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

// checkCost rejects cost constants the §6.1 model cannot price with:
// transfer costs must be finite and positive, which the exact oracle's
// pruning bound and every reported overhead assume.
func checkCost(p core.CostParams) error {
	for _, c := range []struct {
		name string
		v    float64
	}{{"o_copy", p.OCopy}, {"o_dupl", p.ODupl}} {
		if !(c.v > 0) || math.IsInf(c.v, 1) {
			return fmt.Errorf("cost constant %s = %g: want a finite value > 0", c.name, c.v)
		}
	}
	return nil
}
