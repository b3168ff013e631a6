package codegen

import (
	"testing"

	"fpint/internal/isa"
)

// chainFunc builds an mfunc of n blocks: block 0 reads v, block n-1
// defines it and every other block is a NOP. With backward successors
// each block jumps to the one before it, so v is live through the whole
// chain and each pass of a backward liveness solver moves it by one
// block; with forward successors each block falls into the next and
// liveness settles in one pass. Blocks and instructions are the same.
func chainFunc(n int, backward bool) *mfunc {
	f := newMfunc("chain")
	v := f.newVirt(isa.IntReg)
	w := f.newVirt(isa.IntReg)
	for i := 0; i < n; i++ {
		b := &mblock{id: i}
		switch i {
		case 0:
			b.insts = []minst{{op: isa.ADD, rd: w, rs: v, rt: v, target: -1}}
		case n - 1:
			b.insts = []minst{{op: isa.LI, rd: v, rs: noReg, rt: noReg, imm: 1, target: -1}}
		default:
			b.insts = []minst{{op: isa.NOP, rd: noReg, rs: noReg, rt: noReg, target: -1}}
		}
		switch {
		case backward && i > 0:
			b.succs = []int{i - 1}
		case !backward && i < n-1:
			b.succs = []int{i + 1}
		}
		f.blocks = append(f.blocks, b)
	}
	return f
}

// TestRegallocAllocsPerFunction pins that register allocation allocates
// its liveness state per function, not per pass of the fixed point: a
// chain whose liveness needs one pass per block costs the same
// allocations as one that settles in a single pass.
func TestRegallocAllocsPerFunction(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	const blocks, runs = 64, 20
	measure := func(backward bool) float64 {
		// regalloc rewrites its function, so every run gets a fresh copy.
		fs := make([]*mfunc, runs+1)
		for i := range fs {
			fs[i] = chainFunc(blocks, backward)
		}
		if st := regalloc(chainFunc(blocks, backward)); st.SpillSlots != 0 || st.SpillLoads != 0 {
			t.Fatalf("backward=%v: chain spilled: %+v", backward, st)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			regalloc(fs[next])
			next++
		})
	}
	forward, backward := measure(false), measure(true)
	if forward != backward {
		t.Errorf("regalloc allocated %.0f times on the one-pass chain and %.0f on the %d-pass one; want equal",
			forward, backward, blocks)
	}
}
