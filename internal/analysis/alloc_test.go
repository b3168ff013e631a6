package analysis_test

import (
	"testing"

	"fpint/internal/analysis"
	"fpint/internal/ir"
)

// buildBoundLoop builds `i = 0; n = bound; while (i < n) i = i + 1;
// return i` with one parameter p. With paramBound the bound is a copy of
// p, otherwise the constant 3; the two functions have the same blocks,
// instructions and registers. It returns the function and the increment.
func buildBoundLoop(paramBound bool) (*ir.Func, *ir.Instr) {
	fn := ir.NewFunc("loop", ir.I64)
	p := fn.NewVReg(ir.I64)
	fn.Params = []ir.VReg{p}
	i := fn.NewVReg(ir.I64)
	n := fn.NewVReg(ir.I64)
	c := fn.NewVReg(ir.I64)
	b0 := fn.NewBlock()
	head := fn.NewBlock()
	body := fn.NewBlock()
	exit := fn.NewBlock()
	fn.Entry = b0

	b0.Append(&ir.Instr{Op: ir.OpConst, Dst: i, Imm: 0})
	if paramBound {
		b0.Append(&ir.Instr{Op: ir.OpCopy, Dst: n, Args: []ir.VReg{p}})
	} else {
		b0.Append(&ir.Instr{Op: ir.OpConst, Dst: n, Imm: 3})
	}
	b0.Append(&ir.Instr{Op: ir.OpJmp})
	b0.Succs = []*ir.Block{head}

	head.Append(&ir.Instr{Op: ir.OpCmpLT, Dst: c, Args: []ir.VReg{i, n}})
	head.Append(&ir.Instr{Op: ir.OpBr, Args: []ir.VReg{c}})
	head.Succs = []*ir.Block{body, exit}

	inc := body.Append(&ir.Instr{Op: ir.OpAdd, Dst: i, Args: []ir.VReg{i}, Imm: 1, ImmArg: true})
	body.Append(&ir.Instr{Op: ir.OpJmp})
	body.Succs = []*ir.Block{head}

	exit.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{i}})
	fn.RecomputePreds()
	fn.Renumber()
	return fn, inc
}

// TestAnalyzeRangesAllocsPerFunction pins that the range analysis
// allocates its state per function, not per block visit. Against the
// constant bound the loop header settles in a few visits; against the
// parameter it keeps changing until widening pushes the counter to +inf.
// Both functions must cost the same allocations.
func TestAnalyzeRangesAllocsPerFunction(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	measure := func(paramBound bool, want analysis.Interval) float64 {
		fn, inc := buildBoundLoop(paramBound)
		cfg := analysis.BuildCFG(fn)
		if got := analysis.AnalyzeRanges(fn, cfg).ValOut[inc.ID]; got != want {
			t.Fatalf("paramBound=%v: increment interval %v, want %v", paramBound, got, want)
		}
		return testing.AllocsPerRun(20, func() { analysis.AnalyzeRanges(fn, cfg) })
	}
	settled := measure(false, analysis.Interval{Lo: 1, Hi: 3})
	widened := measure(true, analysis.Interval{Lo: 1, Hi: analysis.Top().Hi})
	if settled != widened {
		t.Errorf("AnalyzeRanges allocated %.0f times on the settling loop and %.0f on the widening one; want equal",
			settled, widened)
	}
}
