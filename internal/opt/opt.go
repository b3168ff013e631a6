// Package opt implements the machine-independent optimizations that run
// before code partitioning, mirroring the paper's setup ("code partitioning
// is performed ... after all the initial machine-independent optimizations
// are complete", compiled at -O3): constant folding, local copy propagation,
// local common-subexpression elimination, dead-code elimination, branch
// simplification/block merging, loop-invariant code motion, strength
// reduction of power-of-two multiplies (which matters here because integer
// multiply cannot execute in FPa), and immediate-operand folding (the MIPS
// addi/andi/slti forms the paper's listings use).
package opt

import (
	"time"

	"fpint/internal/ir"
)

// PassObserver receives one record per executed pass: the pass name, the
// function it ran on, its wall time, and the IR instruction count before
// and after. A nil observer disables instrumentation (no timing overhead).
type PassObserver func(pass, fn string, nanos int64, before, after int)

// Optimize runs the standard pass pipeline on every function in the module.
func Optimize(mod *ir.Module) {
	OptimizeObserved(mod, nil)
}

// OptimizeObserved is Optimize with per-pass instrumentation.
func OptimizeObserved(mod *ir.Module, obs PassObserver) {
	for _, fn := range mod.Funcs {
		OptimizeFuncObserved(fn, obs)
	}
}

// OptimizeFunc runs the pass pipeline on one function.
func OptimizeFunc(fn *ir.Func) {
	OptimizeFuncObserved(fn, nil)
}

// OptimizeFuncObserved runs the pass pipeline on one function, reporting
// every executed pass to obs (when non-nil).
func OptimizeFuncObserved(fn *ir.Func, obs PassObserver) {
	run := func(name string, pass func(*ir.Func) bool) bool {
		if obs == nil {
			return pass(fn)
		}
		before := countInstrs(fn)
		start := time.Now()
		changed := pass(fn)
		obs(name, fn.Name, time.Since(start).Nanoseconds(), before, countInstrs(fn))
		return changed
	}
	for i := 0; i < 3; i++ {
		changed := false
		changed = run("copy-propagate", copyPropagate) || changed
		changed = run("const-fold", constFold) || changed
		changed = run("local-cse", localCSE) || changed
		changed = run("simplify-branches", simplifyBranches) || changed
		changed = run("dce", deadCodeElim) || changed
		if !changed {
			break
		}
	}
	run("strength-reduce", strengthReduce)
	run("immediate-fold", immediateFold)
	run("dce", deadCodeElim)
	run("licm", func(f *ir.Func) bool { licm(f); return false })
	run("copy-propagate", copyPropagate)
	run("dce", deadCodeElim)
	run("cleanup", func(f *ir.Func) bool {
		f.RemoveUnreachable()
		f.Renumber()
		f.ComputeLoopDepths()
		return false
	})
}

// countInstrs counts the function's IR instructions without requiring a
// renumber.
func countInstrs(fn *ir.Func) int {
	n := 0
	for _, b := range fn.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// isPure reports whether the instruction has no side effects and always
// produces the same value from the same inputs (safe to remove or reorder
// when its result is unused).
func isPure(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpConst, ir.OpCopy, ir.OpAddrGlobal, ir.OpAddrLocal,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNor,
		ir.OpShl, ir.OpShrA, ir.OpShrL,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFNeg,
		ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE,
		ir.OpCvtIF, ir.OpCvtFI:
		return true
	// Division and remainder can trap on divide-by-zero; keep them unless
	// the divisor is a known non-zero constant (handled in constFold).
	case ir.OpDiv, ir.OpRem, ir.OpFDiv:
		return false
	}
	return false
}

// singleDefs returns, for each vreg with exactly one defining instruction in
// the whole function, that instruction.
func singleDefs(fn *ir.Func) map[ir.VReg]*ir.Instr {
	counts := make(map[ir.VReg]int)
	def := make(map[ir.VReg]*ir.Instr)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				counts[in.Dst]++
				def[in.Dst] = in
			}
		}
	}
	for _, p := range fn.Params {
		counts[p]++ // parameters are defined at entry
		delete(def, p)
	}
	out := make(map[ir.VReg]*ir.Instr)
	for v, c := range counts {
		if c == 1 {
			if in, ok := def[v]; ok {
				out[v] = in
			}
		}
	}
	return out
}

// copyPropagate performs block-local copy propagation: after `d = copy s`,
// uses of d are rewritten to s until either d or s is redefined.
func copyPropagate(fn *ir.Func) bool {
	changed := false
	for _, b := range fn.Blocks {
		alias := make(map[ir.VReg]ir.VReg)
		invalidate := func(v ir.VReg) {
			delete(alias, v)
			for d, s := range alias {
				if s == v {
					delete(alias, d)
				}
			}
		}
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if s, ok := alias[a]; ok {
					in.Args[i] = s
					changed = true
				}
			}
			if in.Dst != 0 {
				invalidate(in.Dst)
				if in.Op == ir.OpCopy && in.Args[0] != in.Dst {
					alias[in.Dst] = in.Args[0]
				}
			}
		}
	}
	return changed
}

// constFold evaluates ALU operations over block-locally known constants and
// simplifies algebraic identities.
func constFold(fn *ir.Func) bool {
	changed := false
	for _, b := range fn.Blocks {
		consts := make(map[ir.VReg]int64)
		fconsts := make(map[ir.VReg]float64)
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				delete(consts, in.Dst)
				delete(fconsts, in.Dst)
			}
			switch in.Op {
			case ir.OpConst:
				if in.IsFloat {
					fconsts[in.Dst] = in.FImm
				} else {
					consts[in.Dst] = in.Imm
				}
				continue
			}
			if in.Dst == 0 || len(in.Args) == 0 {
				continue
			}
			if folded := tryFoldInt(in, consts); folded {
				consts[in.Dst] = in.Imm
				changed = true
				continue
			}
			if folded := tryFoldFloat(in, fconsts); folded {
				fconsts[in.Dst] = in.FImm
				changed = true
			}
		}
	}
	return changed
}

func tryFoldInt(in *ir.Instr, consts map[ir.VReg]int64) bool {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNor, ir.OpShl, ir.OpShrA, ir.OpShrL,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
		a, aok := consts[in.Args[0]]
		var c int64
		cok := false
		if in.ImmArg {
			c, cok = in.Imm, true
		} else {
			c, cok = consts[in.Args[1]]
		}
		if !aok || !cok {
			return false
		}
		var r int64
		switch in.Op {
		case ir.OpAdd:
			r = a + c
		case ir.OpSub:
			r = a - c
		case ir.OpMul:
			r = a * c
		case ir.OpDiv:
			if c == 0 {
				return false
			}
			r = a / c
		case ir.OpRem:
			if c == 0 {
				return false
			}
			r = a % c
		case ir.OpAnd:
			r = a & c
		case ir.OpOr:
			r = a | c
		case ir.OpXor:
			r = a ^ c
		case ir.OpNor:
			r = ^(a | c)
		case ir.OpShl:
			r = a << uint(c&63)
		case ir.OpShrA:
			r = a >> uint(c&63)
		case ir.OpShrL:
			r = int64(uint64(a) >> uint(c&63))
		case ir.OpCmpEQ:
			r = b2i(a == c)
		case ir.OpCmpNE:
			r = b2i(a != c)
		case ir.OpCmpLT:
			r = b2i(a < c)
		case ir.OpCmpLE:
			r = b2i(a <= c)
		case ir.OpCmpGT:
			r = b2i(a > c)
		case ir.OpCmpGE:
			r = b2i(a >= c)
		}
		in.Op = ir.OpConst
		in.Args = nil
		in.Imm = r
		in.IsFloat = false
		in.ImmArg = false
		return true
	}
	return false
}

func tryFoldFloat(in *ir.Instr, fconsts map[ir.VReg]float64) bool {
	switch in.Op {
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul:
		a, aok := fconsts[in.Args[0]]
		c, cok := fconsts[in.Args[1]]
		if !aok || !cok {
			return false
		}
		var r float64
		switch in.Op {
		case ir.OpFAdd:
			r = a + c
		case ir.OpFSub:
			r = a - c
		case ir.OpFMul:
			r = a * c
		}
		in.Op = ir.OpConst
		in.Args = nil
		in.FImm = r
		in.IsFloat = true
		return true
	case ir.OpFNeg:
		a, ok := fconsts[in.Args[0]]
		if !ok {
			return false
		}
		in.Op = ir.OpConst
		in.Args = nil
		in.FImm = -a
		in.IsFloat = true
		return true
	}
	return false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cseKey identifies a pure expression for local CSE.
type cseKey struct {
	op      ir.Op
	a0      ir.VReg
	a1      ir.VReg
	imm     int64
	fimm    float64
	sym     string
	isFloat bool
	immArg  bool
}

// localCSE eliminates repeated pure computations within a block by rewriting
// later occurrences into copies of the first result.
func localCSE(fn *ir.Func) bool {
	changed := false
	for _, b := range fn.Blocks {
		avail := make(map[cseKey]ir.VReg)
		// invalidateUses removes table entries whose operands include v.
		invalidateUses := func(v ir.VReg) {
			for k, res := range avail {
				if k.a0 == v || k.a1 == v || res == v {
					delete(avail, k)
				}
			}
		}
		for _, in := range b.Instrs {
			if isPure(in) && in.Op != ir.OpCopy && in.Dst != 0 {
				k := cseKey{op: in.Op, imm: in.Imm, fimm: in.FImm, sym: in.Sym, isFloat: in.IsFloat, immArg: in.ImmArg}
				if len(in.Args) > 0 {
					k.a0 = in.Args[0]
				}
				if len(in.Args) > 1 {
					k.a1 = in.Args[1]
				}
				if prev, ok := avail[k]; ok && prev != in.Dst {
					in.Op = ir.OpCopy
					in.Args = []ir.VReg{prev}
					in.Imm, in.FImm, in.Sym = 0, 0, ""
					in.ImmArg = false
					changed = true
					invalidateUses(in.Dst)
					continue
				}
				if in.Dst != 0 {
					invalidateUses(in.Dst)
				}
				avail[k] = in.Dst
				continue
			}
			if in.Dst != 0 {
				invalidateUses(in.Dst)
			}
		}
	}
	return changed
}

// deadCodeElim removes pure instructions whose destination register is never
// used anywhere in the function. Iterates to a fixpoint.
func deadCodeElim(fn *ir.Func) bool {
	changedAny := false
	for {
		used := make(map[ir.VReg]bool)
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					used[a] = true
				}
			}
		}
		changed := false
		for _, b := range fn.Blocks {
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				if in.Dst != 0 && !used[in.Dst] && isPure(in) {
					b.RemoveAt(i)
					changed = true
				}
			}
		}
		if !changed {
			return changedAny
		}
		changedAny = true
	}
}

// simplifyBranches folds branches on block-local constants, collapses jump
// chains, and merges straight-line block pairs.
func simplifyBranches(fn *ir.Func) bool {
	changed := false
	// Fold br on constant condition.
	for _, b := range fn.Blocks {
		term := b.Terminator()
		if term == nil || term.Op != ir.OpBr {
			continue
		}
		if cv, ok := blockLocalConst(b, term.Args[0], len(b.Instrs)-1); ok {
			var target *ir.Block
			if cv != 0 {
				target = b.Succs[0]
			} else {
				target = b.Succs[1]
			}
			term.Op = ir.OpJmp
			term.Args = nil
			b.Succs = []*ir.Block{target}
			changed = true
		}
	}
	if changed {
		fn.RecomputePreds()
	}
	// Collapse jumps to empty forwarding blocks (blocks containing only a jmp).
	for _, b := range fn.Blocks {
		for si, s := range b.Succs {
			for len(s.Instrs) == 1 && s.Instrs[0].Op == ir.OpJmp && s.Succs[0] != s {
				s = s.Succs[0]
				changed = true
			}
			b.Succs[si] = s
		}
	}
	fn.RecomputePreds()
	fn.RemoveUnreachable()
	// Merge b with its unique successor when that successor has b as its
	// unique predecessor.
	merged := true
	for merged {
		merged = false
		for _, b := range fn.Blocks {
			term := b.Terminator()
			if term == nil || term.Op != ir.OpJmp {
				continue
			}
			s := b.Succs[0]
			if s == b || s == fn.Entry || len(s.Preds) != 1 {
				continue
			}
			// Splice.
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
			for _, in := range s.Instrs {
				b.Append(in)
			}
			b.Succs = s.Succs
			s.Instrs = nil
			s.Succs = nil
			fn.RecomputePreds()
			fn.RemoveUnreachable()
			merged = true
			changed = true
			break
		}
	}
	return changed
}

// blockLocalConst returns the constant value of v at position idx in block b
// if v's most recent definition before idx within b is an OpConst.
func blockLocalConst(b *ir.Block, v ir.VReg, idx int) (int64, bool) {
	for i := idx - 1; i >= 0; i-- {
		in := b.Instrs[i]
		if in.Dst == v {
			if in.Op == ir.OpConst && !in.IsFloat {
				return in.Imm, true
			}
			return 0, false
		}
	}
	return 0, false
}

// licm hoists loop-invariant pure instructions into a preheader. To stay
// sound on non-SSA IR, it only hoists instructions whose destination has a
// single definition in the whole function and whose operands are all defined
// by single definitions located outside the loop (or are parameters).
func licm(fn *ir.Func) {
	fn.Renumber()
	defs := singleDefs(fn)
	paramSet := make(map[ir.VReg]bool)
	for _, p := range fn.Params {
		paramSet[p] = true
	}

	for _, lp := range fn.NaturalLoops() {
		// Find or create a preheader: the unique out-of-loop predecessor of
		// the header.
		var outsidePreds []*ir.Block
		for _, p := range lp.Header.Preds {
			if !lp.Blocks[p] {
				outsidePreds = append(outsidePreds, p)
			}
		}
		if len(outsidePreds) != 1 {
			continue
		}
		pre := outsidePreds[0]
		if t := pre.Terminator(); t == nil || t.Op != ir.OpJmp {
			continue // only hoist into a dedicated straight-line preheader
		}

		hoisted := make(map[ir.VReg]bool)
		progress := true
		for progress {
			progress = false
			// Walk blocks in layout order, not map order: the order
			// candidates are found is the order they land in the preheader,
			// and compilation must be deterministic.
			for _, blk := range fn.Blocks {
				if !lp.Blocks[blk] {
					continue
				}
				for i := 0; i < len(blk.Instrs); i++ {
					in := blk.Instrs[i]
					if in.Dst == 0 || !isPure(in) || in.Op == ir.OpCopy {
						continue
					}
					if defs[in.Dst] != in {
						continue // not the unique definition
					}
					ok := true
					for _, a := range in.Args {
						if paramSet[a] || hoisted[a] {
							continue
						}
						d, one := defs[a]
						if !one || lp.Blocks[d.Blk] {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					blk.RemoveAt(i)
					pre.InsertBefore(in, len(pre.Instrs)-1)
					hoisted[in.Dst] = true
					progress = true
					i--
				}
			}
		}
	}
	fn.Renumber()
}

// commutativeInt reports whether the integer op allows swapping operands.
func commutativeInt(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNor, ir.OpCmpEQ, ir.OpCmpNE:
		return true
	}
	return false
}

// swapCompare returns the comparison with operands exchanged.
func swapCompare(op ir.Op) (ir.Op, bool) {
	switch op {
	case ir.OpCmpLT:
		return ir.OpCmpGT, true
	case ir.OpCmpLE:
		return ir.OpCmpGE, true
	case ir.OpCmpGT:
		return ir.OpCmpLT, true
	case ir.OpCmpGE:
		return ir.OpCmpLE, true
	}
	return op, false
}

// immediateFold rewrites integer ALU operations whose second operand is a
// uniquely-defined constant into immediate form (the MIPS addi/andi/slti
// shapes the paper's listings use). This keeps constants out of registers —
// matching real instruction sets — which matters for both register pressure
// and the partitioner's view of the RDG (the immediate travels with the
// instruction instead of being a separate const node).
func immediateFold(fn *ir.Func) bool {
	defs := singleDefs(fn)
	constOf := func(v ir.VReg) (int64, bool) {
		d, ok := defs[v]
		if !ok || d.Op != ir.OpConst || d.IsFloat {
			return 0, false
		}
		return d.Imm, true
	}
	changed := false
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.ImmArg || len(in.Args) != 2 {
				continue
			}
			switch in.Op {
			case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor,
				ir.OpShl, ir.OpShrA, ir.OpShrL,
				ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE,
				ir.OpCmpGT, ir.OpCmpGE:
			default:
				continue
			}
			if c, ok := constOf(in.Args[1]); ok {
				if in.Op == ir.OpSub {
					// sub x, #c => add x, #-c (no subi form)
					in.Op = ir.OpAdd
					c = -c
				}
				in.ImmArg = true
				in.Imm = c
				in.Args = in.Args[:1]
				changed = true
				continue
			}
			if c, ok := constOf(in.Args[0]); ok && in.Op != ir.OpSub &&
				in.Op != ir.OpShl && in.Op != ir.OpShrA && in.Op != ir.OpShrL {
				op := in.Op
				if !commutativeInt(op) {
					swapped, ok2 := swapCompare(op)
					if !ok2 {
						continue
					}
					op = swapped
				}
				in.Op = op
				in.ImmArg = true
				in.Imm = c
				in.Args = []ir.VReg{in.Args[1]}
				changed = true
			}
		}
	}
	return changed
}

// strengthReduce rewrites multiplications by power-of-two constants into
// shifts. Beyond the usual latency win (Table 1: 6-cycle multiply vs
// 1-cycle shift), this matters specifically for the paper's architecture:
// integer multiply is not supported in the FPa subsystem, so a residual
// `mul` pins its backward slice to INT, while the equivalent `shl` is
// offloadable.
func strengthReduce(fn *ir.Func) bool {
	defs := singleDefs(fn)
	constOf := func(v ir.VReg) (int64, bool) {
		d, ok := defs[v]
		if !ok || d.Op != ir.OpConst || d.IsFloat {
			return 0, false
		}
		return d.Imm, true
	}
	changed := false
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpMul || len(in.Args) != 2 {
				continue
			}
			c, ok := constOf(in.Args[1])
			arg := in.Args[0]
			if !ok {
				c, ok = constOf(in.Args[0])
				arg = in.Args[1]
			}
			if !ok || c <= 0 || c&(c-1) != 0 {
				continue
			}
			sh := int64(0)
			for v := c; v > 1; v >>= 1 {
				sh++
			}
			in.Op = ir.OpShl
			in.Args = []ir.VReg{arg}
			in.Imm = sh
			in.ImmArg = true
			changed = true
		}
	}
	return changed
}
