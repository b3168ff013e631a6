// Command fpilint is the static-analysis diagnostics driver: it runs the
// CFG, alias, and value-range analyses over mini-C sources and reports lint
// findings — unreachable blocks, dead stores to globals, division-by-zero
// candidates, out-of-bounds access candidates, and memory-traffic components
// the advanced partitioner's cost model rejects.
//
// Usage:
//
//	fpilint file.c...          # human-readable report
//	fpilint -json file.c...    # SARIF-lite JSON report (byte-deterministic)
//	fpilint -facts file.c      # dump the per-access analysis facts
//	fpilint -oracle file.c...  # add partition-gap findings: components where
//	                           # the greedy partitioner's profit falls short
//	                           # of the exact branch-and-bound optimum
//
// Structural lints (unreachable blocks) run on pre-optimization IR — the
// optimizer would delete the evidence. Value lints run on the same IR, with
// the analyses seeing through copies via reaching definitions. Findings do
// not fail the exit status: 0 means the analysis ran, 2 an input error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"fpint/internal/analysis"
	"fpint/internal/codegen"
	"fpint/internal/fperr"
	"fpint/internal/ir"
	"fpint/internal/irgen"
	"fpint/internal/lang"
)

func main() {
	err := fpilintMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpilint: %v\n", err)
	}
	os.Exit(fperr.ExitCode(err))
}

// lowerOnly runs parse → check → lower, stopping before the optimizer so
// structurally dead code is still visible to the lints.
func lowerOnly(src string) (*ir.Module, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := lang.Check(prog); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	mod, err := irgen.Lower(prog)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return mod, nil
}

// lintCostRejects compiles the program with the advanced scheme (analysis
// on) and turns every cost-model-rejected component that would have needed
// copy traffic into a finding: the copies are legal but the cost model
// judged them unprofitable, which usually marks an int/float interface
// worth restructuring.
func lintCostRejects(src string) ([]analysis.Diag, error) {
	res, _, err := codegen.CompileSource(src, codegen.Options{
		Scheme: codegen.SchemeAdvanced, Analysis: true,
	})
	if err != nil {
		return nil, err
	}
	var ds []analysis.Diag
	names := make([]string, 0, len(res.Partitions))
	for name := range res.Partitions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := res.Partitions[name]
		if p == nil || p.Audit == nil {
			continue
		}
		for _, c := range p.Audit.Components {
			if c.Accepted || c.Transfers == 0 {
				continue
			}
			line := 0
			if n := p.G.Nodes[c.MinNode]; n.Instr != nil {
				line = n.Instr.Line
			}
			ds = append(ds, analysis.Diag{
				Fn:   name,
				Line: line,
				Code: analysis.CodeCostReject,
				Msg: fmt.Sprintf("offload candidate (weight %.0f) rejected: needs %d transfer(s), profit %.1f",
					c.Weight, c.Transfers, c.Profit),
			})
		}
	}
	return ds, nil
}

// lintPartitionGap compiles the program under the exact branch-and-bound
// partition oracle and reports every RDG component where the greedy
// (advanced) scheme left profit on the table — a concrete offload
// opportunity the §6.1 heuristic missed — and every component whose exact
// search was cut short, where optimality is merely uncertified.
func lintPartitionGap(src string) ([]analysis.Diag, error) {
	res, _, err := codegen.CompileSource(src, codegen.Options{
		Scheme: codegen.SchemeOptimal, Analysis: true,
	})
	if err != nil {
		return nil, err
	}
	var ds []analysis.Diag
	names := make([]string, 0, len(res.Oracle))
	for name := range res.Oracle {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep := res.Oracle[name]
		p := res.Partitions[name]
		if rep == nil || p == nil {
			continue
		}
		for _, c := range rep.Components {
			line := 0
			if n := p.G.Nodes[c.MinNode]; n.Instr != nil {
				line = n.Instr.Line
			}
			switch {
			case !c.Exact:
				ds = append(ds, analysis.Diag{
					Fn:   name,
					Line: line,
					Code: analysis.CodePartitionGap,
					Msg: fmt.Sprintf("component %d: optimality not certified (%s); greedy result kept at profit %.1f",
						c.Component, c.Reason, c.GreedyProfit),
				})
			case c.Gap() > 1e-9:
				ds = append(ds, analysis.Diag{
					Fn:   name,
					Line: line,
					Code: analysis.CodePartitionGap,
					Msg: fmt.Sprintf("greedy partition leaves profit %.1f on the table in component %d (greedy %.1f, optimal %.1f, %d flexible node(s))",
						c.Gap(), c.Component, c.GreedyProfit, c.OptimalProfit, c.FlexNodes),
				})
			}
		}
	}
	return ds, nil
}

func lintFile(path string, oracle bool) ([]analysis.Diag, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fperr.Wrap(fperr.ClassInput, err)
	}
	src := string(data)
	mod, err := lowerOnly(src)
	if err != nil {
		return nil, fperr.Wrap(fperr.ClassInput, err)
	}
	ds := analysis.LintModule(mod)
	costDs, err := lintCostRejects(src)
	if err != nil {
		return nil, fperr.Wrap(fperr.ClassInput, err)
	}
	ds = append(ds, costDs...)
	if oracle {
		gapDs, err := lintPartitionGap(src)
		if err != nil {
			return nil, fperr.Wrap(fperr.ClassInput, err)
		}
		ds = append(ds, gapDs...)
	}
	analysis.SortDiags(ds)
	return ds, nil
}

func dumpFacts(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fperr.Wrap(fperr.ClassInput, err)
	}
	mod, err := lowerOnly(string(data))
	if err != nil {
		return fperr.Wrap(fperr.ClassInput, err)
	}
	facts := analysis.AnalyzeModule(mod)
	for _, fn := range mod.Funcs {
		ff := facts.Funcs[fn.Name]
		fmt.Fprintf(w, "==== facts for %s ====\n", fn.Name)
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpLoad && in.Op != ir.OpStore {
					continue
				}
				loc := ff.Aliases.Locs[in.ID]
				verdict := "pinned"
				if reason, ok := ff.SafeAddr(in.ID); ok {
					verdict = "safe: " + reason
				}
				fmt.Fprintf(w, "  line %-4d %-6v base=%-8s off=%-14s %s\n",
					in.Line, in.Op, loc.Base, loc.Off, verdict)
			}
		}
	}
	return nil
}

// sarifDoc is the SARIF-lite report: one run per input file, results in
// deterministic order, no timestamps or absolute paths.
type sarifDoc struct {
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    string        `json:"tool"`
	File    string        `json:"file"`
	Results []sarifResult `json:"results"`
}

type sarifResult struct {
	RuleID   string `json:"ruleId"`
	Message  string `json:"message"`
	Function string `json:"function"`
	Line     int    `json:"line"`
}

func fpilintMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fpilint", flag.ContinueOnError)
	var (
		jsonOut = fs.Bool("json", false, "emit the findings as a SARIF-lite JSON document")
		facts   = fs.Bool("facts", false, "dump per-access analysis facts instead of linting")
		oracle  = fs.Bool("oracle", false, "also run the exact partition oracle and report greedy-vs-optimal partition gaps")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	if fs.NArg() == 0 {
		return fperr.New(fperr.ClassUsage, "usage: fpilint [-json|-facts|-oracle] file.c...")
	}

	if *facts {
		for _, path := range fs.Args() {
			if err := dumpFacts(w, path); err != nil {
				return err
			}
		}
		return nil
	}
	return lintReport(fs.Args(), *jsonOut, *oracle, w)
}

// lintReport lints each file and writes the combined report — plain text or
// the SARIF-lite document — to w.
func lintReport(paths []string, jsonOut, oracle bool, w io.Writer) error {
	doc := sarifDoc{Version: "fpilint/1"}
	total := 0
	for _, path := range paths {
		ds, err := lintFile(path, oracle)
		if err != nil {
			return err
		}
		total += len(ds)
		base := filepath.Base(path)
		if jsonOut {
			run := sarifRun{Tool: "fpilint", File: base, Results: []sarifResult{}}
			for _, d := range ds {
				run.Results = append(run.Results, sarifResult{
					RuleID: d.Code, Message: d.Msg, Function: d.Fn, Line: d.Line,
				})
			}
			doc.Runs = append(doc.Runs, run)
			continue
		}
		for _, d := range ds {
			fmt.Fprintf(w, "%s:%d: %s: %s [%s]\n", base, d.Line, d.Code, d.Msg, d.Fn)
		}
	}
	if jsonOut {
		data, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			return fperr.Wrap(fperr.ClassInternal, err)
		}
		data = append(data, '\n')
		if _, err := w.Write(data); err != nil {
			return fperr.Wrap(fperr.ClassInternal, err)
		}
		return nil
	}
	if total == 0 {
		fmt.Fprintln(w, "no findings")
	}
	return nil
}
