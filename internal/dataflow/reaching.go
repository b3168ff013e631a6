package dataflow

import "fpint/internal/ir"

// DefSite identifies a definition of a virtual register: either an
// instruction (Instr != nil) or a function parameter (Instr == nil,
// ParamIdx valid).
type DefSite struct {
	Instr    *ir.Instr
	ParamIdx int
}

// ReachingDefs holds the solved reaching-definitions problem for a function.
//
// Definition sites are numbered: instruction IDs [0, NumInstrs) for
// instructions with a destination register, then NumInstrs+i for parameter i.
type ReachingDefs struct {
	Fn *ir.Func

	// numSites = fn.NumInstrs() + len(fn.Params).
	numSites int

	// defsOf[v] lists the def-site indices of virtual register v; the
	// lists share one backing array.
	defsOf [][]int

	// sites[i] describes site i.
	sites []DefSite

	// UseDefs[instrID][argIdx] lists the def sites reaching that use.
	UseDefs [][][]int
}

// ComputeReachingDefs solves reaching definitions for fn. The function must
// have been renumbered (ir.Func.Renumber). Its state is indexed by VReg,
// Block.ID and instruction ID and allocated once, not per pass of the
// fixed point.
func ComputeReachingDefs(fn *ir.Func) *ReachingDefs {
	n := fn.NumInstrs()
	rd := &ReachingDefs{
		Fn:       fn,
		numSites: n + len(fn.Params),
		defsOf:   make([][]int, fn.NumVRegs()),
		sites:    make([]DefSite, n+len(fn.Params)),
		UseDefs:  make([][][]int, n),
	}

	// defsOf: count each register's sites, then carve one backing array.
	counts := make([]int, fn.NumVRegs())
	nargs := 0
	for _, b := range fn.Blocks {
		for _, instr := range b.Instrs {
			nargs += len(instr.Args)
			if instr.Dst != 0 {
				counts[instr.Dst]++
			}
		}
	}
	for _, p := range fn.Params {
		counts[p]++
	}
	flatDefs := make([]int, rd.numSites)
	off := 0
	for v, c := range counts {
		rd.defsOf[v] = flatDefs[off : off : off+c]
		off += c
	}
	for _, b := range fn.Blocks {
		for _, instr := range b.Instrs {
			if instr.Dst != 0 {
				rd.defsOf[instr.Dst] = append(rd.defsOf[instr.Dst], instr.ID)
				rd.sites[instr.ID] = DefSite{Instr: instr}
			}
		}
	}
	for i, p := range fn.Params {
		idx := n + i
		rd.defsOf[p] = append(rd.defsOf[p], idx)
		rd.sites[idx] = DefSite{ParamIdx: i}
	}

	// GEN/KILL per block, indexed by Block.ID like IN and OUT.
	nb := fn.NumBlockIDs()
	gen := NewBitSets(nb, rd.numSites)
	kill := NewBitSets(nb, rd.numSites)
	in := NewBitSets(nb, rd.numSites)
	out := NewBitSets(nb, rd.numSites)
	for _, b := range fn.Blocks {
		g, k := &gen[b.ID], &kill[b.ID]
		for _, instr := range b.Instrs {
			if instr.Dst == 0 {
				continue
			}
			for _, d := range rd.defsOf[instr.Dst] {
				g.Clear(d)
				k.Set(d)
			}
			g.Set(instr.ID)
			k.Clear(instr.ID)
		}
	}

	// Entry IN = parameter defs.
	for i := range fn.Params {
		in[fn.Entry.ID].Set(n + i)
	}

	// Iterate to fixpoint in reverse postorder. Every OUT only grows, so
	// joining the predecessors into the stored IN gives the same sets as
	// recomputing IN from scratch on every pass.
	order := fn.ReversePostorder()
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			inSet := &in[b.ID]
			if b != fn.Entry {
				for _, p := range b.Preds {
					inSet.UnionWith(&out[p.ID])
				}
			}
			o, iw, g, k := out[b.ID].words, inSet.words, gen[b.ID].words, kill[b.ID].words
			for i, w := range iw {
				if nw := g[i] | w&^k[i]; nw != o[i] {
					o[i] = nw
					changed = true
				}
			}
		}
	}

	// Walk each block once more to attribute defs to uses. The per-use
	// lists are carved out of one backing array; a list made before the
	// array has to grow keeps pointing into the old one, which nothing
	// writes again.
	cur := NewBitSet(rd.numSites)
	argLists := make([][]int, nargs)
	flat := make([]int, 0, 2*nargs)
	for _, b := range fn.Blocks {
		cur.CopyFrom(&in[b.ID])
		for _, instr := range b.Instrs {
			uses := argLists[:len(instr.Args):len(instr.Args)]
			argLists = argLists[len(instr.Args):]
			for ai, a := range instr.Args {
				start := len(flat)
				for _, d := range rd.defsOf[a] {
					if cur.Has(d) {
						flat = append(flat, d)
					}
				}
				uses[ai] = flat[start:len(flat):len(flat)]
			}
			rd.UseDefs[instr.ID] = uses
			if instr.Dst != 0 {
				for _, d := range rd.defsOf[instr.Dst] {
					cur.Clear(d)
				}
				cur.Set(instr.ID)
			}
		}
	}
	return rd
}

// NumSites returns the total number of definition sites.
func (rd *ReachingDefs) NumSites() int { return rd.numSites }

// Site returns the description of def site idx.
func (rd *ReachingDefs) Site(idx int) DefSite { return rd.sites[idx] }

// IsParamSite reports whether def site idx is a function parameter.
func (rd *ReachingDefs) IsParamSite(idx int) bool { return idx >= rd.Fn.NumInstrs() }

// DefsOf returns the def sites of register v.
func (rd *ReachingDefs) DefsOf(v ir.VReg) []int { return rd.defsOf[v] }
