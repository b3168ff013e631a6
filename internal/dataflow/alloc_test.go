package dataflow_test

import (
	"testing"

	"fpint/internal/dataflow"
	"fpint/internal/ir"
)

// branchChain builds a function of n blocks: block i < n-1 defines
// vi = const i and branches on the parameter c to block i+1 or to its
// second successor, and block n-1 returns c. With backEdges the second
// successor of every block but the first is the block before it, so a
// definition travels back one block per pass of a forward fixed point;
// otherwise it is the exit. Blocks, instructions and registers are the
// same, and so is the reaching set at every use: c's parameter site.
func branchChain(n int, backEdges bool) *ir.Func {
	fn := ir.NewFunc("chain", ir.I64)
	c := fn.NewVReg(ir.I64)
	fn.Params = []ir.VReg{c}
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = fn.NewBlock()
	}
	fn.Entry = blocks[0]
	exit := blocks[n-1]
	for i, b := range blocks[:n-1] {
		b.Append(&ir.Instr{Op: ir.OpConst, Dst: fn.NewVReg(ir.I64), Imm: int64(i)})
		b.Append(&ir.Instr{Op: ir.OpBr, Args: []ir.VReg{c}})
		second := exit
		if backEdges && i > 0 {
			second = blocks[i-1]
		}
		b.Succs = []*ir.Block{blocks[i+1], second}
	}
	exit.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{c}})
	fn.RecomputePreds()
	fn.Renumber()
	return fn
}

// TestReachingDefsAllocsPerFunction pins that reaching definitions
// allocate their state per function, not per block per pass of the fixed
// point: a CFG whose definitions need a pass per block to settle costs the
// same allocations as one that settles in two passes.
func TestReachingDefsAllocsPerFunction(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	const blocks = 24
	measure := func(backEdges bool) float64 {
		fn := branchChain(blocks, backEdges)
		rd := dataflow.ComputeReachingDefs(fn)
		for _, b := range fn.Blocks {
			use := b.Instrs[len(b.Instrs)-1]
			if defs := rd.UseDefs[use.ID][0]; len(defs) != 1 || !rd.IsParamSite(defs[0]) {
				t.Fatalf("backEdges=%v: b%d: reaching defs of c = %v, want its parameter site", backEdges, b.ID, defs)
			}
		}
		return testing.AllocsPerRun(20, func() { dataflow.ComputeReachingDefs(fn) })
	}
	forward, backward := measure(false), measure(true)
	if forward != backward {
		t.Errorf("ComputeReachingDefs allocated %.0f times when definitions settle in two passes and %.0f when they need %d; want equal",
			forward, backward, blocks)
	}
}
