package analysis

import (
	"slices"

	"fpint/internal/ir"
)

// Ranges is the result of the value-range analysis: one interval per
// integer definition site, valid for the value that site produces on any
// execution (flow-sensitive within the function, with branch-edge
// refinement from comparison guards and widening on loop-carried values).
type Ranges struct {
	// ValOut[instrID] is the interval of the value defined by that
	// instruction's Dst. Only I64 definitions appear. A value produced by
	// an instruction that never appears executed is bottom.
	ValOut map[int]Interval

	// DivisorIn[instrID] is the interval of the divisor operand of an
	// OpDiv/OpRem instruction at that program point (after refinement),
	// for the division-by-zero lint.
	DivisorIn map[int]Interval
}

// rangeEnv holds one interval per virtual register, indexed by VReg.
// Top means the analysis makes no claim.
type rangeEnv []Interval

// joinInto joins src into dst in place, reporting whether dst changed.
// With widen set, every entry that changed is widened against its old
// value; widening an unchanged entry would leave it as it is.
func (dst rangeEnv) joinInto(src rangeEnv, widen bool) bool {
	changed := false
	for k, dv := range dst {
		j := dv.Join(src[k])
		if j == dv {
			continue
		}
		if widen {
			j = dv.Widen(j)
		}
		dst[k] = j
		changed = true
	}
	return changed
}

// wideningThreshold is the number of times a widening point's
// in-environment may change before joins through it are widened.
const wideningThreshold = 8

// AnalyzeRanges runs the interval analysis to a fixpoint over fn.
// Parameters and loads start at Top; in-environments grow monotonically
// (accumulated by join) with widening — applied only at targets of
// retreating edges, after wideningThreshold changes — so termination is
// guaranteed even on loop-carried counters: every CFG cycle contains a
// retreating edge with respect to reverse postorder, hence a widening
// point. Blocks off the cycle spine (e.g. loop bodies) are never widened
// directly, so the precision that branch-edge refinement recovers at the
// loop head (a widened counter flowing through an `i < n` guard
// re-acquires its upper bound on the true edge) survives into the body.
//
// Blocks are numbered by their reverse-postorder position. The state is
// allocated per function, not per visit: one environment per reached
// block, joined and widened in place, plus two scratch environments for
// the block being transferred and the edge being refined.
func AnalyzeRanges(fn *ir.Func, cfg *CFG) *Ranges {
	r := &Ranges{ValOut: make(map[int]Interval), DivisorIn: make(map[int]Interval)}
	nb, nv := len(cfg.Blocks), fn.NumVRegs()

	// Successor numbers, and the widening points: targets of retreating
	// edges (the successor is not later in reverse postorder than the
	// block), including self-loops. Successors of a reachable block are
	// reachable.
	rpo := make([]int, fn.NumBlockIDs())
	for bi, b := range cfg.Blocks {
		rpo[b.ID] = bi
	}
	succs := make([][]int, nb)
	widenAt := make([]bool, nb)
	for bi, b := range cfg.Blocks {
		succs[bi] = make([]int, len(b.Succs))
		for si, s := range b.Succs {
			sj := rpo[s.ID]
			succs[bi][si] = sj
			if sj <= bi {
				widenAt[sj] = true
			}
		}
	}

	in := make([]rangeEnv, nb) // nil until the block is first reached
	visits := make([]int, nb)
	// A FIFO ring of block numbers: a block is queued at most once at a
	// time, so nb slots never overflow.
	ring := make([]int, nb)
	inWork := make([]bool, nb)
	head, queued := 0, 0
	push := func(b int) {
		if !inWork[b] {
			inWork[b] = true
			ring[(head+queued)%nb] = b
			queued++
		}
	}

	env := make(rangeEnv, nv)  // the block being transferred
	edge := make(rangeEnv, nv) // one out-edge's refinement of env

	// Entry environment (the entry is first in reverse postorder): every
	// parameter and every other register is Top. Every other block is
	// reached through an edge from a reached one.
	in[0] = make(rangeEnv, nv)
	for k := range in[0] {
		in[0][k] = Top()
	}
	push(0)

	for queued > 0 {
		bi := ring[head]
		head = (head + 1) % nb
		queued--
		inWork[bi] = false

		b := cfg.Blocks[bi]
		copy(env, in[bi])
		transferBlock(fn, b, env, nil)

		// Propagate to successors with branch-edge refinement.
		for si, sj := range succs[bi] {
			copy(edge, env)
			refineEdge(b, si, edge)
			if in[sj] == nil {
				in[sj] = slices.Clone(edge)
				push(sj)
				continue
			}
			// Monotone accumulation: join the edge environment into the
			// stored one; widen once the block has changed often enough.
			widen := widenAt[sj] && visits[sj] >= wideningThreshold
			if !in[sj].joinInto(edge, widen) {
				continue
			}
			visits[sj]++
			push(sj)
		}
	}

	// Final deterministic pass with the stable in-environments records the
	// per-definition intervals and the per-division divisor intervals.
	for bi, b := range cfg.Blocks {
		copy(env, in[bi])
		transferBlock(fn, b, env, r)
	}
	return r
}

// transferBlock walks b's instructions updating env. When rec is non-nil
// the per-definition results are recorded into it.
func transferBlock(fn *ir.Func, b *ir.Block, env rangeEnv, rec *Ranges) {
	for _, instr := range b.Instrs {
		if rec != nil && (instr.Op == ir.OpDiv || instr.Op == ir.OpRem) {
			rec.DivisorIn[instr.ID] = argInterval(fn, instr, 1, env)
		}
		out, hasOut := transferInstr(fn, instr, env)
		if instr.Dst != 0 && fn.VRegType(instr.Dst) == ir.I64 {
			if !hasOut {
				out = Top()
			}
			env[instr.Dst] = out
			if rec != nil {
				rec.ValOut[instr.ID] = out
			}
		}
	}
}

// argInterval is the interval of operand k at instr, honoring the ImmArg
// immediate form (where the second operand is Imm, not a register).
func argInterval(fn *ir.Func, instr *ir.Instr, k int, env rangeEnv) Interval {
	if instr.ImmArg && k == 1 {
		return Const(instr.Imm)
	}
	if k >= len(instr.Args) {
		return Top()
	}
	v := instr.Args[k]
	if fn.VRegType(v) != ir.I64 {
		return Top()
	}
	return env[v]
}

// transferInstr computes the interval of instr's integer result, reporting
// ok=false when the result is unconstrained (Top).
func transferInstr(fn *ir.Func, instr *ir.Instr, env rangeEnv) (Interval, bool) {
	arg := func(k int) Interval { return argInterval(fn, instr, k, env) }
	switch instr.Op {
	case ir.OpConst:
		if instr.IsFloat {
			return Interval{}, false
		}
		return Const(instr.Imm), true
	case ir.OpCopy:
		return arg(0), true
	case ir.OpAdd:
		return arg(0).Add(arg(1)), true
	case ir.OpSub:
		return arg(0).Sub(arg(1)), true
	case ir.OpMul:
		return arg(0).Mul(arg(1)), true
	case ir.OpDiv:
		return arg(0).Div(arg(1)), true
	case ir.OpRem:
		return arg(0).Rem(arg(1)), true
	case ir.OpShl:
		return arg(0).Shl(arg(1)), true
	case ir.OpShrA:
		return arg(0).ShrA(arg(1)), true
	case ir.OpShrL:
		return arg(0).ShrL(arg(1)), true
	case ir.OpAnd:
		return arg(0).And(arg(1)), true
	case ir.OpOr, ir.OpXor:
		return arg(0).OrXor(arg(1)), true
	case ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
		ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE:
		return Interval{0, 1}, true
	}
	// Loads, calls, conversions, address materializations, OpNor: Top.
	return Interval{}, false
}

// refineEdge narrows env along the edge b -> b.Succs[si] using b's
// terminating conditional branch. The refinement only fires when the
// branch condition is defined in b by an integer comparison whose operand
// registers are not redefined between the comparison and the branch, so
// the environment entries still describe the compared values.
func refineEdge(b *ir.Block, si int, env rangeEnv) {
	term := b.Terminator()
	if term == nil || term.Op != ir.OpBr || len(term.Args) == 0 {
		return
	}
	cond := term.Args[0]
	// Find the in-block definition of the condition and check stability of
	// the compared registers afterwards.
	var cmp *ir.Instr
	for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
		instr := b.Instrs[idx]
		if instr == term {
			continue
		}
		if instr.Dst == cond {
			switch instr.Op {
			case ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
				cmp = instr
			}
			break
		}
	}
	if cmp == nil {
		return
	}
	for idx := cmp.Idx + 1; idx < len(b.Instrs); idx++ {
		d := b.Instrs[idx].Dst
		for _, a := range cmp.Args {
			if d == a {
				return // operand redefined after the comparison
			}
		}
	}

	taken := si == 0 // Succs[0] is the true edge
	op := cmp.Op
	if !taken {
		op = negateCmp(op)
	}

	a := cmp.Args[0]
	av := env[a]
	var bReg ir.VReg
	var bv Interval
	if cmp.ImmArg {
		bv = Const(cmp.Imm)
	} else {
		if len(cmp.Args) < 2 {
			return
		}
		bReg = cmp.Args[1]
		bv = env[bReg]
	}

	na, nb := refineCmp(op, av, bv)
	env[a] = na
	if bReg != 0 {
		env[bReg] = nb
	}
}

// negateCmp returns the comparison that holds on the false edge.
func negateCmp(op ir.Op) ir.Op {
	switch op {
	case ir.OpCmpEQ:
		return ir.OpCmpNE
	case ir.OpCmpNE:
		return ir.OpCmpEQ
	case ir.OpCmpLT:
		return ir.OpCmpGE
	case ir.OpCmpLE:
		return ir.OpCmpGT
	case ir.OpCmpGT:
		return ir.OpCmpLE
	case ir.OpCmpGE:
		return ir.OpCmpLT
	}
	return op
}

// refineCmp narrows both operand intervals under the assumption `a op b`.
func refineCmp(op ir.Op, a, b Interval) (Interval, Interval) {
	switch op {
	case ir.OpCmpEQ:
		m := a.Meet(b)
		return m, m
	case ir.OpCmpNE:
		// Only singleton exclusions at the borders are expressible.
		if c, ok := b.IsConst(); ok && !a.IsBot() {
			if a.Lo == c && c != posInf {
				a.Lo = c + 1
			}
			if a.Hi == c && c != negInf {
				a.Hi = c - 1
			}
			if a.IsBot() {
				a = Bot() // canonical: excluding a singleton's only value
			}
		}
		return a, b
	case ir.OpCmpLT:
		return refineLess(a, b, true)
	case ir.OpCmpLE:
		return refineLess(a, b, false)
	case ir.OpCmpGT:
		b2, a2 := refineLess(b, a, true)
		return a2, b2
	case ir.OpCmpGE:
		b2, a2 := refineLess(b, a, false)
		return a2, b2
	}
	return a, b
}

// refineLess narrows under a < b (strict) or a <= b.
func refineLess(a, b Interval, strict bool) (Interval, Interval) {
	if a.IsBot() || b.IsBot() {
		return a, b
	}
	d := int64(0)
	if strict {
		d = 1
	}
	if b.Hi != posInf {
		a = a.Meet(Interval{negInf, b.Hi - d})
	}
	if a.Lo != negInf {
		b = b.Meet(Interval{a.Lo + d, posInf})
	}
	return a, b
}
