// Package irgen lowers the checked AST into the three-address IR.
//
// Scalar locals live in virtual registers (the IR is not SSA; registers may
// be redefined). Local arrays live in frame slots addressed with OpAddrLocal.
// Globals are accessed through OpAddrGlobal plus explicit loads and stores.
// Array indexing scales by 8 (every scalar is one 8-byte word), matching the
// "sll $2,$16,2; addu; lw" idiom in the paper's examples (scaled for 64-bit
// data).
package irgen

import (
	"fmt"

	"fpint/internal/ir"
	"fpint/internal/lang"
)

// Lower converts a checked program into an IR module.
func Lower(prog *lang.Program) (*ir.Module, error) {
	mod := ir.NewModule()
	for _, g := range prog.Globals {
		words := int64(1)
		if g.Type.IsArray() {
			words = g.ArrayLen
		}
		mod.Globals = append(mod.Globals, &ir.Global{
			Name:    g.Name,
			Words:   words,
			IsFloat: g.Type == lang.TypeFloat || g.Type == lang.TypeFloatArray,
			InitInt: g.InitInt,
			InitFlt: g.InitFlt,
		})
	}
	for _, fd := range prog.Funcs {
		fn, err := lowerFunc(mod, fd)
		if err != nil {
			return nil, err
		}
		mod.AddFunc(fn)
	}
	for _, fn := range mod.Funcs {
		fn.RemoveUnreachable()
		fn.Renumber()
		fn.ComputeLoopDepths()
		if err := fn.Verify(); err != nil {
			return nil, fmt.Errorf("irgen: %v", err)
		}
	}
	return mod, nil
}

type loopCtx struct {
	breakBlk *ir.Block
	contBlk  *ir.Block
}

type funcLowerer struct {
	mod *ir.Module
	fn  *ir.Func
	cur *ir.Block

	// curLine is the 1-based source line of the statement or expression
	// currently being lowered; emit stamps it onto every instruction so
	// the debug line table needs no per-site bookkeeping.
	curLine int

	// vars maps in-scope names to either a virtual register (scalars) or a
	// local array slot / array base register.
	scopes []map[string]varBinding
	loops  []loopCtx
}

type varBinding struct {
	reg    ir.VReg // scalar register, or array base address register (params)
	slot   int64   // local array slot index when isSlot
	isSlot bool
}

func irType(t lang.Type) ir.Type {
	switch t {
	case lang.TypeFloat:
		return ir.F64
	case lang.TypeVoid:
		return ir.Void
	default:
		// int, and array bases (addresses) are I64.
		return ir.I64
	}
}

func lowerFunc(mod *ir.Module, fd *lang.FuncDecl) (*ir.Func, error) {
	fl := &funcLowerer{mod: mod}
	fn := ir.NewFunc(fd.Name, irType(fd.Ret))
	fn.Line = fd.Pos.Line
	fl.curLine = fd.Pos.Line
	fl.fn = fn
	fn.Entry = fn.NewBlock()
	fl.cur = fn.Entry
	fl.pushScope()
	for _, prm := range fd.Params {
		var reg ir.VReg
		if prm.Type.IsArray() {
			reg = fn.NewVReg(ir.I64)
		} else {
			reg = fn.NewVReg(irType(prm.Type))
		}
		fn.Params = append(fn.Params, reg)
		fl.bind(prm.Name, varBinding{reg: reg})
	}
	if err := fl.stmt(fd.Body); err != nil {
		return nil, err
	}
	// Ensure the exit paths end in ret.
	fl.sealWithReturn()
	fl.popScope()
	return fn, nil
}

// sealWithReturn appends a default return to any block lacking a terminator.
func (fl *funcLowerer) sealWithReturn() {
	for _, b := range fl.fn.Blocks {
		if b.Terminator() != nil {
			continue
		}
		ret := &ir.Instr{Op: ir.OpRet, Line: fl.fn.Line}
		if fl.fn.RetType != ir.Void {
			z := fl.fn.NewVReg(fl.fn.RetType)
			if fl.fn.RetType == ir.F64 {
				b.Append(&ir.Instr{Op: ir.OpConst, Dst: z, IsFloat: true, Line: fl.fn.Line})
			} else {
				b.Append(&ir.Instr{Op: ir.OpConst, Dst: z, Line: fl.fn.Line})
			}
			ret.Args = []ir.VReg{z}
		}
		b.Append(ret)
	}
}

func (fl *funcLowerer) pushScope() {
	fl.scopes = append(fl.scopes, make(map[string]varBinding))
}
func (fl *funcLowerer) popScope() { fl.scopes = fl.scopes[:len(fl.scopes)-1] }

func (fl *funcLowerer) bind(name string, vb varBinding) {
	fl.scopes[len(fl.scopes)-1][name] = vb
}

func (fl *funcLowerer) lookup(name string) (varBinding, bool) {
	for i := len(fl.scopes) - 1; i >= 0; i-- {
		if vb, ok := fl.scopes[i][name]; ok {
			return vb, true
		}
	}
	return varBinding{}, false
}

func (fl *funcLowerer) emit(in *ir.Instr) *ir.Instr {
	if in.Line == 0 {
		in.Line = fl.curLine
	}
	return fl.cur.Append(in)
}

// setLine records the source line of the node being lowered. Synthesized
// nodes (line 0) keep the enclosing construct's line.
func (fl *funcLowerer) setLine(p lang.Pos) {
	if p.Line != 0 {
		fl.curLine = p.Line
	}
}

func (fl *funcLowerer) emitConstInt(v int64) ir.VReg {
	dst := fl.fn.NewVReg(ir.I64)
	fl.emit(&ir.Instr{Op: ir.OpConst, Dst: dst, Imm: v})
	return dst
}

func (fl *funcLowerer) emitConstFloat(v float64) ir.VReg {
	dst := fl.fn.NewVReg(ir.F64)
	fl.emit(&ir.Instr{Op: ir.OpConst, Dst: dst, FImm: v, IsFloat: true})
	return dst
}

// branch terminates the current block with a conditional branch.
func (fl *funcLowerer) branch(cond ir.VReg, taken, fallthru *ir.Block) {
	fl.emit(&ir.Instr{Op: ir.OpBr, Args: []ir.VReg{cond}})
	fl.cur.Succs = []*ir.Block{taken, fallthru}
}

func (fl *funcLowerer) jump(to *ir.Block) {
	fl.emit(&ir.Instr{Op: ir.OpJmp})
	fl.cur.Succs = []*ir.Block{to}
}

func (fl *funcLowerer) stmt(s lang.Stmt) error {
	fl.setLine(lang.StmtPos(s))
	switch st := s.(type) {
	case *lang.BlockStmt:
		fl.pushScope()
		for _, sub := range st.Stmts {
			if err := fl.stmt(sub); err != nil {
				return err
			}
			if fl.cur.Terminator() != nil {
				break // rest of the block is unreachable
			}
		}
		fl.popScope()
		return nil
	case *lang.VarDeclStmt:
		if st.Type.IsArray() {
			slot := fl.fn.AddLocalSlot(st.ArrayLen)
			fl.bind(st.Name, varBinding{slot: slot, isSlot: true})
			return nil
		}
		reg := fl.fn.NewVReg(irType(st.Type))
		if st.Init != nil {
			v, err := fl.expr(st.Init)
			if err != nil {
				return err
			}
			fl.emit(&ir.Instr{Op: ir.OpCopy, Dst: reg, Args: []ir.VReg{v}})
		} else {
			fl.emit(&ir.Instr{Op: ir.OpConst, Dst: reg, IsFloat: st.Type == lang.TypeFloat})
		}
		fl.bind(st.Name, varBinding{reg: reg})
		return nil
	case *lang.ExprStmt:
		_, err := fl.expr(st.X)
		return err
	case *lang.IfStmt:
		thenBlk := fl.fn.NewBlock()
		var elseBlk *ir.Block
		joinBlk := fl.fn.NewBlock()
		if st.Else != nil {
			elseBlk = fl.fn.NewBlock()
		} else {
			elseBlk = joinBlk
		}
		cond, err := fl.expr(st.Cond)
		if err != nil {
			return err
		}
		fl.branch(cond, thenBlk, elseBlk)
		fl.cur = thenBlk
		if err := fl.stmt(st.Then); err != nil {
			return err
		}
		if fl.cur.Terminator() == nil {
			fl.jump(joinBlk)
		}
		if st.Else != nil {
			fl.cur = elseBlk
			if err := fl.stmt(st.Else); err != nil {
				return err
			}
			if fl.cur.Terminator() == nil {
				fl.jump(joinBlk)
			}
		}
		fl.cur = joinBlk
		return nil
	case *lang.WhileStmt:
		condBlk := fl.fn.NewBlock()
		bodyBlk := fl.fn.NewBlock()
		exitBlk := fl.fn.NewBlock()
		fl.jump(condBlk)
		fl.cur = condBlk
		cond, err := fl.expr(st.Cond)
		if err != nil {
			return err
		}
		fl.branch(cond, bodyBlk, exitBlk)
		fl.loops = append(fl.loops, loopCtx{breakBlk: exitBlk, contBlk: condBlk})
		fl.cur = bodyBlk
		if err := fl.stmt(st.Body); err != nil {
			return err
		}
		if fl.cur.Terminator() == nil {
			fl.jump(condBlk)
		}
		fl.loops = fl.loops[:len(fl.loops)-1]
		fl.cur = exitBlk
		return nil
	case *lang.DoWhileStmt:
		bodyBlk := fl.fn.NewBlock()
		condBlk := fl.fn.NewBlock()
		exitBlk := fl.fn.NewBlock()
		fl.jump(bodyBlk)
		fl.loops = append(fl.loops, loopCtx{breakBlk: exitBlk, contBlk: condBlk})
		fl.cur = bodyBlk
		if err := fl.stmt(st.Body); err != nil {
			return err
		}
		if fl.cur.Terminator() == nil {
			fl.jump(condBlk)
		}
		fl.cur = condBlk
		cond, err := fl.expr(st.Cond)
		if err != nil {
			return err
		}
		fl.branch(cond, bodyBlk, exitBlk)
		fl.loops = fl.loops[:len(fl.loops)-1]
		fl.cur = exitBlk
		return nil
	case *lang.ForStmt:
		fl.pushScope()
		if st.Init != nil {
			if err := fl.stmt(st.Init); err != nil {
				return err
			}
		}
		condBlk := fl.fn.NewBlock()
		bodyBlk := fl.fn.NewBlock()
		postBlk := fl.fn.NewBlock()
		exitBlk := fl.fn.NewBlock()
		fl.jump(condBlk)
		fl.cur = condBlk
		if st.Cond != nil {
			cond, err := fl.expr(st.Cond)
			if err != nil {
				return err
			}
			fl.branch(cond, bodyBlk, exitBlk)
		} else {
			fl.jump(bodyBlk)
		}
		fl.loops = append(fl.loops, loopCtx{breakBlk: exitBlk, contBlk: postBlk})
		fl.cur = bodyBlk
		if err := fl.stmt(st.Body); err != nil {
			return err
		}
		if fl.cur.Terminator() == nil {
			fl.jump(postBlk)
		}
		fl.loops = fl.loops[:len(fl.loops)-1]
		fl.cur = postBlk
		if st.Post != nil {
			if _, err := fl.expr(st.Post); err != nil {
				return err
			}
		}
		fl.jump(condBlk)
		fl.cur = exitBlk
		fl.popScope()
		return nil
	case *lang.ReturnStmt:
		in := &ir.Instr{Op: ir.OpRet}
		if st.X != nil {
			v, err := fl.expr(st.X)
			if err != nil {
				return err
			}
			in.Args = []ir.VReg{v}
		}
		fl.emit(in)
		return nil
	case *lang.BreakStmt:
		lc := fl.loops[len(fl.loops)-1]
		fl.jump(lc.breakBlk)
		return nil
	case *lang.ContinueStmt:
		lc := fl.loops[len(fl.loops)-1]
		fl.jump(lc.contBlk)
		return nil
	}
	return fmt.Errorf("irgen: unknown statement %T", s)
}

// addr computes the byte address register for an lvalue that lives in
// memory (globals and array elements). ok=false means the lvalue is a
// register-resident scalar local.
func (fl *funcLowerer) addr(x lang.Expr) (addrReg ir.VReg, isFloat bool, inMem bool, err error) {
	switch e := x.(type) {
	case *lang.Ident:
		if _, local := fl.lookup(e.Name); local {
			return 0, false, false, nil
		}
		g := fl.mod.Global(e.Name)
		if g == nil {
			return 0, false, false, fmt.Errorf("irgen: unknown identifier %q", e.Name)
		}
		dst := fl.fn.NewVReg(ir.I64)
		fl.emit(&ir.Instr{Op: ir.OpAddrGlobal, Dst: dst, Sym: e.Name})
		return dst, g.IsFloat, true, nil
	case *lang.IndexExpr:
		idx, err := fl.expr(e.Idx)
		if err != nil {
			return 0, false, false, err
		}
		// Scale index by 8.
		three := fl.emitConstInt(3)
		scaled := fl.fn.NewVReg(ir.I64)
		fl.emit(&ir.Instr{Op: ir.OpShl, Dst: scaled, Args: []ir.VReg{idx, three}})
		var base ir.VReg
		if vb, local := fl.lookup(e.Base.Name); local {
			if vb.isSlot {
				base = fl.fn.NewVReg(ir.I64)
				fl.emit(&ir.Instr{Op: ir.OpAddrLocal, Dst: base, Imm: vb.slot})
			} else {
				base = vb.reg // array parameter: base address in a register
			}
		} else {
			base = fl.fn.NewVReg(ir.I64)
			fl.emit(&ir.Instr{Op: ir.OpAddrGlobal, Dst: base, Sym: e.Base.Name})
		}
		sum := fl.fn.NewVReg(ir.I64)
		fl.emit(&ir.Instr{Op: ir.OpAdd, Dst: sum, Args: []ir.VReg{base, scaled}})
		return sum, e.ExprType() == lang.TypeFloat, true, nil
	}
	return 0, false, false, fmt.Errorf("irgen: not an lvalue: %T", x)
}

func (fl *funcLowerer) expr(x lang.Expr) (ir.VReg, error) {
	fl.setLine(lang.ExprPos(x))
	switch e := x.(type) {
	case *lang.IntLit:
		return fl.emitConstInt(e.Val), nil
	case *lang.FloatLit:
		return fl.emitConstFloat(e.Val), nil
	case *lang.Ident:
		if vb, local := fl.lookup(e.Name); local {
			if vb.isSlot {
				base := fl.fn.NewVReg(ir.I64)
				fl.emit(&ir.Instr{Op: ir.OpAddrLocal, Dst: base, Imm: vb.slot})
				return base, nil
			}
			return vb.reg, nil
		}
		g := fl.mod.Global(e.Name)
		if g == nil {
			return 0, fmt.Errorf("irgen: unknown identifier %q", e.Name)
		}
		base := fl.fn.NewVReg(ir.I64)
		fl.emit(&ir.Instr{Op: ir.OpAddrGlobal, Dst: base, Sym: e.Name})
		if e.ExprType().IsArray() {
			return base, nil // arrays decay to their address
		}
		t := ir.I64
		if g.IsFloat {
			t = ir.F64
		}
		dst := fl.fn.NewVReg(t)
		fl.emit(&ir.Instr{Op: ir.OpLoad, Dst: dst, Args: []ir.VReg{base}, IsFloat: g.IsFloat})
		return dst, nil
	case *lang.IndexExpr:
		a, isF, _, err := fl.addr(e)
		if err != nil {
			return 0, err
		}
		t := ir.I64
		if isF {
			t = ir.F64
		}
		dst := fl.fn.NewVReg(t)
		fl.emit(&ir.Instr{Op: ir.OpLoad, Dst: dst, Args: []ir.VReg{a}, IsFloat: isF})
		return dst, nil
	case *lang.CallExpr:
		return fl.call(e)
	case *lang.UnaryExpr:
		v, err := fl.expr(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case lang.UnNeg:
			if e.ExprType() == lang.TypeFloat {
				dst := fl.fn.NewVReg(ir.F64)
				fl.emit(&ir.Instr{Op: ir.OpFNeg, Dst: dst, Args: []ir.VReg{v}})
				return dst, nil
			}
			zero := fl.emitConstInt(0)
			dst := fl.fn.NewVReg(ir.I64)
			fl.emit(&ir.Instr{Op: ir.OpSub, Dst: dst, Args: []ir.VReg{zero, v}})
			return dst, nil
		case lang.UnNot:
			zero := fl.emitConstInt(0)
			dst := fl.fn.NewVReg(ir.I64)
			fl.emit(&ir.Instr{Op: ir.OpCmpEQ, Dst: dst, Args: []ir.VReg{v, zero}})
			return dst, nil
		case lang.UnBitNot:
			zero := fl.emitConstInt(0)
			dst := fl.fn.NewVReg(ir.I64)
			fl.emit(&ir.Instr{Op: ir.OpNor, Dst: dst, Args: []ir.VReg{v, zero}})
			return dst, nil
		}
		return 0, fmt.Errorf("irgen: unknown unary op")
	case *lang.BinaryExpr:
		if e.Op == lang.BinLAnd || e.Op == lang.BinLOr {
			return fl.shortCircuit(e)
		}
		l, err := fl.expr(e.L)
		if err != nil {
			return 0, err
		}
		r, err := fl.expr(e.R)
		if err != nil {
			return 0, err
		}
		return fl.binOp(e.Op, e.L.ExprType(), l, r)
	case *lang.CondExpr:
		return fl.ternary(e)
	case *lang.AssignExpr:
		return fl.assign(e)
	case *lang.IncDecExpr:
		op := lang.BinAdd
		if e.Decr {
			op = lang.BinSub
		}
		one := &lang.IntLit{Val: 1}
		one.SetType(lang.TypeInt)
		return fl.assign(&lang.AssignExpr{Lhs: e.Lhs, Rhs: one, Op: op, OpValid: true, Pos: e.Pos})
	}
	return 0, fmt.Errorf("irgen: unknown expression %T", x)
}

var intBinOps = map[lang.BinOp]ir.Op{
	lang.BinAdd: ir.OpAdd, lang.BinSub: ir.OpSub, lang.BinMul: ir.OpMul,
	lang.BinDiv: ir.OpDiv, lang.BinRem: ir.OpRem,
	lang.BinAnd: ir.OpAnd, lang.BinOr: ir.OpOr, lang.BinXor: ir.OpXor,
	lang.BinShl: ir.OpShl, lang.BinShr: ir.OpShrA,
	lang.BinLt: ir.OpCmpLT, lang.BinLe: ir.OpCmpLE,
	lang.BinGt: ir.OpCmpGT, lang.BinGe: ir.OpCmpGE,
	lang.BinEq: ir.OpCmpEQ, lang.BinNe: ir.OpCmpNE,
}

var fltBinOps = map[lang.BinOp]ir.Op{
	lang.BinAdd: ir.OpFAdd, lang.BinSub: ir.OpFSub, lang.BinMul: ir.OpFMul,
	lang.BinDiv: ir.OpFDiv,
	lang.BinLt:  ir.OpFCmpLT, lang.BinLe: ir.OpFCmpLE,
	lang.BinGt: ir.OpFCmpGT, lang.BinGe: ir.OpFCmpGE,
	lang.BinEq: ir.OpFCmpEQ, lang.BinNe: ir.OpFCmpNE,
}

func (fl *funcLowerer) binOp(op lang.BinOp, operandType lang.Type, l, r ir.VReg) (ir.VReg, error) {
	if operandType == lang.TypeFloat {
		irop, ok := fltBinOps[op]
		if !ok {
			return 0, fmt.Errorf("irgen: float op %s unsupported", op)
		}
		t := ir.F64
		if irop >= ir.OpFCmpEQ && irop <= ir.OpFCmpGE {
			t = ir.I64
		}
		dst := fl.fn.NewVReg(t)
		fl.emit(&ir.Instr{Op: irop, Dst: dst, Args: []ir.VReg{l, r}})
		return dst, nil
	}
	irop, ok := intBinOps[op]
	if !ok {
		return 0, fmt.Errorf("irgen: int op %s unsupported", op)
	}
	dst := fl.fn.NewVReg(ir.I64)
	fl.emit(&ir.Instr{Op: irop, Dst: dst, Args: []ir.VReg{l, r}})
	return dst, nil
}

// shortCircuit lowers && and || with control flow into a result register.
func (fl *funcLowerer) shortCircuit(e *lang.BinaryExpr) (ir.VReg, error) {
	res := fl.fn.NewVReg(ir.I64)
	rhsBlk := fl.fn.NewBlock()
	shortBlk := fl.fn.NewBlock()
	joinBlk := fl.fn.NewBlock()

	l, err := fl.expr(e.L)
	if err != nil {
		return 0, err
	}
	if e.Op == lang.BinLAnd {
		fl.branch(l, rhsBlk, shortBlk) // true -> evaluate RHS, false -> short 0
	} else {
		fl.branch(l, shortBlk, rhsBlk) // true -> short 1
	}

	fl.cur = shortBlk
	short := int64(0)
	if e.Op == lang.BinLOr {
		short = 1
	}
	fl.emit(&ir.Instr{Op: ir.OpConst, Dst: res, Imm: short})
	fl.jump(joinBlk)

	fl.cur = rhsBlk
	r, err := fl.expr(e.R)
	if err != nil {
		return 0, err
	}
	zero := fl.emitConstInt(0)
	fl.emit(&ir.Instr{Op: ir.OpCmpNE, Dst: res, Args: []ir.VReg{r, zero}})
	fl.jump(joinBlk)

	fl.cur = joinBlk
	return res, nil
}

func (fl *funcLowerer) ternary(e *lang.CondExpr) (ir.VReg, error) {
	t := irType(e.ExprType())
	res := fl.fn.NewVReg(t)
	thenBlk := fl.fn.NewBlock()
	elseBlk := fl.fn.NewBlock()
	joinBlk := fl.fn.NewBlock()
	cond, err := fl.expr(e.Cond)
	if err != nil {
		return 0, err
	}
	fl.branch(cond, thenBlk, elseBlk)
	fl.cur = thenBlk
	tv, err := fl.expr(e.Then)
	if err != nil {
		return 0, err
	}
	fl.emit(&ir.Instr{Op: ir.OpCopy, Dst: res, Args: []ir.VReg{tv}})
	fl.jump(joinBlk)
	fl.cur = elseBlk
	ev, err := fl.expr(e.Else)
	if err != nil {
		return 0, err
	}
	fl.emit(&ir.Instr{Op: ir.OpCopy, Dst: res, Args: []ir.VReg{ev}})
	fl.jump(joinBlk)
	fl.cur = joinBlk
	return res, nil
}

func (fl *funcLowerer) assign(e *lang.AssignExpr) (ir.VReg, error) {
	// Register-resident scalar local?
	if id, ok := e.Lhs.(*lang.Ident); ok {
		if vb, local := fl.lookup(id.Name); local && !vb.isSlot {
			rhs, err := fl.rhsValue(e, func() (ir.VReg, error) { return vb.reg, nil })
			if err != nil {
				return 0, err
			}
			fl.emit(&ir.Instr{Op: ir.OpCopy, Dst: vb.reg, Args: []ir.VReg{rhs}})
			return vb.reg, nil
		}
	}
	// Memory-resident lvalue: compute the address once.
	a, isF, _, err := fl.addr(e.Lhs)
	if err != nil {
		return 0, err
	}
	rhs, err := fl.rhsValue(e, func() (ir.VReg, error) {
		t := ir.I64
		if isF {
			t = ir.F64
		}
		old := fl.fn.NewVReg(t)
		fl.emit(&ir.Instr{Op: ir.OpLoad, Dst: old, Args: []ir.VReg{a}, IsFloat: isF})
		return old, nil
	})
	if err != nil {
		return 0, err
	}
	fl.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.VReg{rhs, a}, IsFloat: isF})
	return rhs, nil
}

// rhsValue computes the value to store for an assignment, handling compound
// operators by reading the old value through oldVal.
func (fl *funcLowerer) rhsValue(e *lang.AssignExpr, oldVal func() (ir.VReg, error)) (ir.VReg, error) {
	rhs, err := fl.expr(e.Rhs)
	if err != nil {
		return 0, err
	}
	if !e.OpValid {
		return rhs, nil
	}
	old, err := oldVal()
	if err != nil {
		return 0, err
	}
	return fl.binOp(e.Op, e.Lhs.ExprType(), old, rhs)
}

func (fl *funcLowerer) call(e *lang.CallExpr) (ir.VReg, error) {
	// Builtin conversions lower to IR conversion ops.
	switch e.Fn {
	case "__itof":
		v, err := fl.expr(e.Args[0])
		if err != nil {
			return 0, err
		}
		dst := fl.fn.NewVReg(ir.F64)
		fl.emit(&ir.Instr{Op: ir.OpCvtIF, Dst: dst, Args: []ir.VReg{v}})
		return dst, nil
	case "__ftoi":
		v, err := fl.expr(e.Args[0])
		if err != nil {
			return 0, err
		}
		dst := fl.fn.NewVReg(ir.I64)
		fl.emit(&ir.Instr{Op: ir.OpCvtFI, Dst: dst, Args: []ir.VReg{v}})
		return dst, nil
	}
	var args []ir.VReg
	for _, a := range e.Args {
		v, err := fl.expr(a)
		if err != nil {
			return 0, err
		}
		args = append(args, v)
	}
	in := &ir.Instr{Op: ir.OpCall, Sym: e.Fn, Args: args}
	if rt := e.ExprType(); rt != lang.TypeVoid {
		in.Dst = fl.fn.NewVReg(irType(rt))
	}
	fl.emit(in)
	return in.Dst, nil
}
