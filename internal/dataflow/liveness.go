package dataflow

import "fpint/internal/ir"

// SolveLiveness solves backward liveness over blocks numbered
// 0..len(succs)-1. succs[b] lists the successors of block b, use[b] the
// values b reads before writing them and def[b] the values b writes; all
// sets share one capacity. It returns each block's live-in and live-out
// set, the least solution of
//
//	out[b] = ∪ in[s] over s in succs[b]
//	in[b]  = use[b] ∪ (out[b] − def[b])
//
// Blocks are visited in decreasing number until a pass changes nothing,
// so numbering blocks in layout order converges in few passes. The sets
// are allocated once, not per pass.
func SolveLiveness(succs [][]int, use, def []BitSet) (in, out []BitSet) {
	n := 0
	if len(use) > 0 {
		n = use[0].n
	}
	in = NewBitSets(len(succs), n)
	out = NewBitSets(len(succs), n)
	for changed := true; changed; {
		changed = false
		for b := len(succs) - 1; b >= 0; b-- {
			o := out[b].words
			clear(o)
			for _, s := range succs[b] {
				for i, w := range in[s].words {
					o[i] |= w
				}
			}
			iw, uw, dw := in[b].words, use[b].words, def[b].words
			for i, w := range o {
				if nw := uw[i] | w&^dw[i]; nw != iw[i] {
					iw[i] = nw
					changed = true
				}
			}
		}
	}
	return in, out
}

// Liveness holds per-block live-in/live-out virtual register sets.
type Liveness struct {
	Fn      *ir.Func
	LiveIn  map[*ir.Block]*BitSet // indexed by VReg
	LiveOut map[*ir.Block]*BitSet
}

// ComputeLiveness solves backward liveness over the virtual registers of
// fn with SolveLiveness, numbering blocks in layout order. Every block,
// reachable or not, gets live sets.
func ComputeLiveness(fn *ir.Func) *Liveness {
	n := fn.NumVRegs()
	index := make(map[*ir.Block]int, len(fn.Blocks))
	for i, b := range fn.Blocks {
		index[b] = i
	}
	succs := make([][]int, len(fn.Blocks))
	use := NewBitSets(len(fn.Blocks), n)
	def := NewBitSets(len(fn.Blocks), n)
	for i, b := range fn.Blocks {
		for _, s := range b.Succs {
			if si, ok := index[s]; ok {
				succs[i] = append(succs[i], si)
			}
		}
		for _, instr := range b.Instrs {
			for _, a := range instr.Args {
				if !def[i].Has(int(a)) {
					use[i].Set(int(a))
				}
			}
			if instr.Dst != 0 {
				def[i].Set(int(instr.Dst))
			}
		}
	}
	in, out := SolveLiveness(succs, use, def)
	lv := &Liveness{
		Fn:      fn,
		LiveIn:  make(map[*ir.Block]*BitSet, len(fn.Blocks)),
		LiveOut: make(map[*ir.Block]*BitSet, len(fn.Blocks)),
	}
	for i, b := range fn.Blocks {
		lv.LiveIn[b] = &in[i]
		lv.LiveOut[b] = &out[i]
	}
	return lv
}
