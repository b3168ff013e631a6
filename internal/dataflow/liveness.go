package dataflow

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
