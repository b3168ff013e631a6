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

// OptimizeFuncObserved runs the pass pipeline on one function, reporting
// every executed pass to obs (when non-nil).
func OptimizeFuncObserved(fn *ir.Func, obs PassObserver) {
	s := newFuncState(fn)
	run := func(name string, pass func() bool) bool {
		if obs == nil {
			return pass()
		}
		before := countInstrs(fn)
		start := time.Now()
		changed := pass()
		obs(name, fn.Name, time.Since(start).Nanoseconds(), before, countInstrs(fn))
		return changed
	}
	for i := 0; i < 3; i++ {
		changed := false
		changed = run("copy-propagate", s.copyPropagate) || changed
		changed = run("const-fold", s.constFold) || changed
		changed = run("local-cse", s.localCSE) || changed
		changed = run("simplify-branches", s.simplifyBranches) || changed
		changed = run("dce", s.deadCodeElim) || changed
		if !changed {
			break
		}
	}
	run("strength-reduce", s.strengthReduce)
	run("immediate-fold", s.immediateFold)
	run("dce", s.deadCodeElim)
	run("licm", func() bool { s.licm(); return false })
	run("copy-propagate", s.copyPropagate)
	run("dce", s.deadCodeElim)
	run("cleanup", func() bool {
		fn.RemoveUnreachable()
		fn.Renumber()
		fn.ComputeLoopDepths()
		return false
	})
}

// funcState is the per-register state the passes over one function share,
// indexed by VReg and allocated once per function: no pass creates a
// register. Every pass that stamps a register numbers its instructions on
// one clock that runs across passes, so a stamp an earlier pass left is
// older than every stamp of the current pass and needs no reset.
type funcState struct {
	fn    *ir.Func
	clock int32
	regs  []regState
	defs  []*ir.Instr // singleDefs' result
	uses  []int32     // deadCodeElim's use counts
	avail map[cseKey]cseEntry
}

// regState is one register's entry in the passes' tables.
type regState struct {
	// constFold: the constant, and the clock at which the register
	// became a known constant (0: none).
	i       int64
	f       float64
	constAt int32
	isFloat bool

	isParam bool
	defAt   int32 // clock of the register's latest definition

	// copyPropagate: the clock of the copy that made the register an
	// alias of src (0: none).
	copyAt int32
	src    ir.VReg

	// licm: the mark of the loop whose pass hoisted the register's
	// definition.
	hoisted int32
}

func newFuncState(fn *ir.Func) *funcState {
	n := fn.NumVRegs()
	s := &funcState{
		fn:    fn,
		regs:  make([]regState, n),
		defs:  make([]*ir.Instr, n),
		uses:  make([]int32, n),
		avail: make(map[cseKey]cseEntry),
	}
	for _, p := range fn.Params {
		s.regs[p].isParam = true
	}
	return s
}

// tick advances the clock for the next instruction and returns its stamp.
func (s *funcState) tick() int32 {
	s.clock++
	return s.clock
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

// multiDef marks, while singleDefs runs, a register defined more than once.
var multiDef = &ir.Instr{}

// singleDefs returns, indexed by VReg, the defining instruction of every
// register with exactly one definition in the whole function. An entry is
// nil when the register has more than one definition or is a parameter
// (parameters are defined at entry). The slice is reused by the next call.
func (s *funcState) singleDefs() []*ir.Instr {
	defs := s.defs
	clear(defs)
	for _, p := range s.fn.Params {
		defs[p] = multiDef
	}
	for _, b := range s.fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dst == 0 {
				continue
			}
			if defs[in.Dst] == nil {
				defs[in.Dst] = in
			} else {
				defs[in.Dst] = multiDef
			}
		}
	}
	for v, d := range defs {
		if d == multiDef {
			defs[v] = nil
		}
	}
	return defs
}

// copyPropagate performs block-local copy propagation: after `d = copy s`,
// uses of d are rewritten to s until either d or s is redefined.
func (s *funcState) copyPropagate() bool {
	// An alias holds while its copy is in the current block and its
	// source was not redefined since.
	regs := s.regs
	changed := false
	for _, b := range s.fn.Blocks {
		blockStart := s.clock + 1
		for _, in := range b.Instrs {
			t := s.tick()
			for i, a := range in.Args {
				if r := regs[a]; r.copyAt >= blockStart && regs[r.src].defAt < r.copyAt {
					in.Args[i] = r.src
					changed = true
				}
			}
			if in.Dst != 0 {
				r := &regs[in.Dst]
				r.defAt, r.copyAt = t, 0
				if in.Op == ir.OpCopy && in.Args[0] != in.Dst {
					r.copyAt, r.src = t, in.Args[0]
				}
			}
		}
	}
	return changed
}

// blockConsts looks up the block-locally known constants: a register's
// constant holds when it was set at or after the current block's start.
type blockConsts struct {
	regs       []regState
	blockStart int32
}

// intOf returns v's known integer constant.
func (c blockConsts) intOf(v ir.VReg) (int64, bool) {
	r := &c.regs[v]
	return r.i, r.constAt >= c.blockStart && !r.isFloat
}

// floatOf returns v's known float constant.
func (c blockConsts) floatOf(v ir.VReg) (float64, bool) {
	r := &c.regs[v]
	return r.f, r.constAt >= c.blockStart && r.isFloat
}

// constFold evaluates ALU operations over block-locally known constants and
// simplifies algebraic identities.
func (s *funcState) constFold() bool {
	changed := false
	regs := s.regs
	for _, b := range s.fn.Blocks {
		consts := blockConsts{regs: regs, blockStart: s.clock + 1}
		for _, in := range b.Instrs {
			t := s.tick()
			if in.Dst != 0 {
				regs[in.Dst].constAt = 0
			}
			switch in.Op {
			case ir.OpConst:
				r := &regs[in.Dst]
				r.constAt, r.isFloat, r.i, r.f = t, in.IsFloat, in.Imm, in.FImm
				continue
			}
			if in.Dst == 0 || len(in.Args) == 0 {
				continue
			}
			if folded := tryFoldInt(in, consts); folded {
				r := &regs[in.Dst]
				r.constAt, r.isFloat, r.i = t, false, in.Imm
				changed = true
				continue
			}
			if folded := tryFoldFloat(in, consts); folded {
				r := &regs[in.Dst]
				r.constAt, r.isFloat, r.f = t, true, in.FImm
				changed = true
			}
		}
	}
	return changed
}

func tryFoldInt(in *ir.Instr, consts blockConsts) bool {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNor, ir.OpShl, ir.OpShrA, ir.OpShrL,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
		a, aok := consts.intOf(in.Args[0])
		var c int64
		cok := false
		if in.ImmArg {
			c, cok = in.Imm, true
		} else {
			c, cok = consts.intOf(in.Args[1])
		}
		if !aok || !cok {
			return false
		}
		r, ok := ir.EvalInt(in.Op, a, c)
		if !ok {
			return false // division by zero traps at run time
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

func tryFoldFloat(in *ir.Instr, consts blockConsts) bool {
	switch in.Op {
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul:
		a, aok := consts.floatOf(in.Args[0])
		c, cok := consts.floatOf(in.Args[1])
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
		a, ok := consts.floatOf(in.Args[0])
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

// cseEntry is localCSE's table entry: the register holding an expression,
// stamped with the clock of the instruction that computed it. It holds
// until an operand or the result is redefined after it.
type cseEntry struct {
	res ir.VReg
	at  int32
}

// localCSE eliminates repeated pure computations within a block by rewriting
// later occurrences into copies of the first result.
func (s *funcState) localCSE() bool {
	regs, avail := s.regs, s.avail
	valid := func(k cseKey, e cseEntry) bool {
		return regs[k.a0].defAt <= e.at && regs[k.a1].defAt <= e.at && regs[e.res].defAt <= e.at
	}
	changed := false
	for _, b := range s.fn.Blocks {
		clear(avail)
		for _, in := range b.Instrs {
			t := s.tick()
			if isPure(in) && in.Op != ir.OpCopy && in.Dst != 0 {
				k := cseKey{op: in.Op, imm: in.Imm, fimm: in.FImm, sym: in.Sym, isFloat: in.IsFloat, immArg: in.ImmArg}
				if len(in.Args) > 0 {
					k.a0 = in.Args[0]
				}
				if len(in.Args) > 1 {
					k.a1 = in.Args[1]
				}
				if prev, ok := avail[k]; ok && valid(k, prev) && prev.res != in.Dst {
					in.Op = ir.OpCopy
					in.Args = []ir.VReg{prev.res}
					in.Imm, in.FImm, in.Sym = 0, 0, ""
					in.ImmArg = false
					changed = true
					regs[in.Dst].defAt = t
					continue
				}
				regs[in.Dst].defAt = t
				avail[k] = cseEntry{res: in.Dst, at: t}
				continue
			}
			if in.Dst != 0 {
				regs[in.Dst].defAt = t
			}
		}
	}
	return changed
}

// deadCodeElim removes pure instructions whose destination register is never
// used anywhere in the function, to a fixpoint: it counts every register's
// uses once and takes a removed instruction's uses off the counts, so an
// instruction whose last reader was removed goes in the same sweep when it
// comes later in the sweep's order, otherwise in the next one.
func (s *funcState) deadCodeElim() bool {
	fn := s.fn
	uses := s.uses
	clear(uses)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				uses[a]++
			}
		}
	}
	changedAny := false
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			// Walk backwards so a chain of dead values goes in one sweep;
			// survivors are packed towards the end of the slice.
			keep := len(b.Instrs)
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				if in.Dst != 0 && uses[in.Dst] == 0 && isPure(in) {
					for _, a := range in.Args {
						uses[a]--
					}
					changed = true
					continue
				}
				keep--
				b.Instrs[keep] = in
			}
			if keep > 0 {
				n := copy(b.Instrs, b.Instrs[keep:])
				clear(b.Instrs[n:])
				b.Instrs = b.Instrs[:n]
				for i, in := range b.Instrs {
					in.Idx = i
				}
			}
		}
		changedAny = changedAny || changed
	}
	return changedAny
}

// simplifyBranches folds branches on block-local constants, collapses jump
// chains, and merges straight-line block pairs.
func (s *funcState) simplifyBranches() bool {
	fn := s.fn
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
func (s *funcState) licm() {
	fn := s.fn
	fn.Renumber()
	defs := s.singleDefs()
	regs := s.regs

	for _, lp := range fn.NaturalLoops() {
		// Find or create a preheader: the unique out-of-loop predecessor of
		// the header.
		var outsidePreds []*ir.Block
		for _, p := range lp.Header.Preds {
			if !lp.Contains(p) {
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

		// A value hoisted into an inner loop's preheader is still inside
		// every enclosing loop, so the hoisted mark holds for one loop.
		mark := s.tick()
		progress := true
		for progress {
			progress = false
			// Walk blocks in layout order: the order candidates are found
			// is the order they land in the preheader, and compilation
			// must be deterministic.
			for _, blk := range lp.Blocks {
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
						if regs[a].isParam || regs[a].hoisted == mark {
							continue
						}
						if d := defs[a]; d == nil || lp.Contains(d.Blk) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					blk.RemoveAt(i)
					pre.InsertBefore(in, len(pre.Instrs)-1)
					regs[in.Dst].hoisted = mark
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
func (s *funcState) immediateFold() bool {
	defs := s.singleDefs()
	constOf := func(v ir.VReg) (int64, bool) {
		d := defs[v]
		if d == nil || d.Op != ir.OpConst || d.IsFloat {
			return 0, false
		}
		return d.Imm, true
	}
	changed := false
	for _, b := range s.fn.Blocks {
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
func (s *funcState) strengthReduce() bool {
	defs := s.singleDefs()
	constOf := func(v ir.VReg) (int64, bool) {
		d := defs[v]
		if d == nil || d.Op != ir.OpConst || d.IsFloat {
			return 0, false
		}
		return d.Imm, true
	}
	changed := false
	for _, b := range s.fn.Blocks {
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
