package opt

import (
	"testing"

	"fpint/internal/ir"
)

// deadBlock builds a one-block function holding n dead pure instructions
// and `ret p`. With chain, each instruction reads the one before it, so
// only the last is dead until it is removed; otherwise every one is dead
// from the start. Both functions have the same registers and
// instructions.
func deadBlock(n int, chain bool) *ir.Func {
	fn := ir.NewFunc("dead", ir.I64)
	p := fn.NewVReg(ir.I64)
	fn.Params = []ir.VReg{p}
	b := fn.NewBlock()
	fn.Entry = b
	prev := fn.NewVReg(ir.I64)
	b.Append(&ir.Instr{Op: ir.OpConst, Dst: prev})
	for i := 1; i < n; i++ {
		v := fn.NewVReg(ir.I64)
		arg := p
		if chain {
			arg = prev
		}
		b.Append(&ir.Instr{Op: ir.OpAdd, Dst: v, Args: []ir.VReg{arg}, Imm: 1, ImmArg: true})
		prev = v
	}
	b.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{p}})
	fn.Renumber()
	return fn
}

// TestDeadCodeElimAllocsPerFunction pins that dead-code elimination
// allocates nothing per round of its fixpoint: a chain that dies one
// instruction at a time costs the same allocations as a block whose
// instructions are all dead at once.
func TestDeadCodeElimAllocsPerFunction(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	const dead, runs = 32, 20
	measure := func(chain bool) float64 {
		// deadCodeElim rewrites its function, so every run gets a fresh copy.
		fns := make([]*ir.Func, runs+1)
		for i := range fns {
			fns[i] = deadBlock(dead, chain)
		}
		if fn := deadBlock(dead, chain); !newFuncState(fn).deadCodeElim() || len(fn.Blocks[0].Instrs) != 1 {
			t.Fatalf("chain=%v: dead instructions left:\n%s", chain, fn)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			newFuncState(fns[next]).deadCodeElim()
			next++
		})
	}
	independent, chain := measure(false), measure(true)
	if independent != chain {
		t.Errorf("deadCodeElim allocated %.0f times on %d independent dead instructions and %.0f on a chain of them; want equal",
			independent, dead, chain)
	}
}
