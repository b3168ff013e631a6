package lang

import "fmt"

// FuncSig describes a callable signature for checking.
type FuncSig struct {
	Ret    Type
	Params []Type
}

// Builtins available to every program.
//
//	print(int)          — prints an integer (host-side trap)
//	printf_(float)      — prints a float (host-side trap)
//	__itof(int) float   — int→float conversion
//	__ftoi(float) int   — float→int (truncating) conversion
var Builtins = map[string]FuncSig{
	"print":   {Ret: TypeVoid, Params: []Type{TypeInt}},
	"printf_": {Ret: TypeVoid, Params: []Type{TypeFloat}},
	"__itof":  {Ret: TypeFloat, Params: []Type{TypeInt}},
	"__ftoi":  {Ret: TypeInt, Params: []Type{TypeFloat}},
}

type checker struct {
	funcs   map[string]FuncSig
	globals map[string]Type
	// Current function state.
	fn     *FuncDecl
	scopes []map[string]Type
}

// Check type-checks the program in place, annotating expression types.
// It returns the first error found.
func Check(prog *Program) error {
	c := &checker{
		funcs:   make(map[string]FuncSig),
		globals: make(map[string]Type),
	}
	for name, sig := range Builtins {
		c.funcs[name] = sig
	}
	for _, g := range prog.Globals {
		if _, dup := c.globals[g.Name]; dup {
			return fmt.Errorf("%s: duplicate global %q", g.Pos, g.Name)
		}
		if g.Type.IsArray() {
			if g.ArrayLen <= 0 {
				return fmt.Errorf("%s: array %q must have positive length", g.Pos, g.Name)
			}
			if int64(len(g.InitInt)) > g.ArrayLen || int64(len(g.InitFlt)) > g.ArrayLen {
				return fmt.Errorf("%s: too many initializers for %q", g.Pos, g.Name)
			}
		}
		c.globals[g.Name] = g.Type
	}
	for _, fn := range prog.Funcs {
		if _, dup := c.funcs[fn.Name]; dup {
			return fmt.Errorf("%s: duplicate function %q", fn.Pos, fn.Name)
		}
		sig := FuncSig{Ret: fn.Ret}
		for _, prm := range fn.Params {
			sig.Params = append(sig.Params, prm.Type)
		}
		c.funcs[fn.Name] = sig
	}
	if _, ok := c.funcs["main"]; !ok {
		return fmt.Errorf("program has no main function")
	}
	for _, fn := range prog.Funcs {
		if err := c.checkFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]Type)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(name string, t Type, pos Pos) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return fmt.Errorf("%s: redeclaration of %q", pos, name)
	}
	top[name] = t
	return nil
}

func (c *checker) lookup(name string) (Type, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t, ok := c.scopes[i][name]; ok {
			return t, true
		}
	}
	t, ok := c.globals[name]
	return t, ok
}

func (c *checker) checkFunc(fn *FuncDecl) error {
	c.fn = fn
	c.scopes = nil
	c.pushScope()
	for _, prm := range fn.Params {
		if err := c.declare(prm.Name, prm.Type, prm.Pos); err != nil {
			return err
		}
	}
	if err := c.checkStmt(fn.Body, 0); err != nil {
		return err
	}
	c.popScope()
	return nil
}

func (c *checker) checkStmt(s Stmt, loopDepth int) error {
	switch st := s.(type) {
	case *BlockStmt:
		c.pushScope()
		for _, sub := range st.Stmts {
			if err := c.checkStmt(sub, loopDepth); err != nil {
				return err
			}
		}
		c.popScope()
		return nil
	case *VarDeclStmt:
		if st.Type.IsArray() {
			if st.ArrayLen <= 0 {
				return fmt.Errorf("%s: local array %q must have positive length", st.Pos, st.Name)
			}
			if st.Init != nil {
				return fmt.Errorf("%s: local array %q cannot be initialized", st.Pos, st.Name)
			}
		}
		if st.Init != nil {
			t, err := c.checkExpr(st.Init)
			if err != nil {
				return err
			}
			if t != st.Type {
				return fmt.Errorf("%s: cannot initialize %s %q with %s", st.Pos, st.Type, st.Name, t)
			}
		}
		return c.declare(st.Name, st.Type, st.Pos)
	case *ExprStmt:
		_, err := c.checkExpr(st.X)
		return err
	case *IfStmt:
		if err := c.checkCond(st.Cond, st.Pos); err != nil {
			return err
		}
		if err := c.checkStmt(st.Then, loopDepth); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkStmt(st.Else, loopDepth)
		}
		return nil
	case *WhileStmt:
		if err := c.checkCond(st.Cond, st.Pos); err != nil {
			return err
		}
		return c.checkStmt(st.Body, loopDepth+1)
	case *DoWhileStmt:
		if err := c.checkStmt(st.Body, loopDepth+1); err != nil {
			return err
		}
		return c.checkCond(st.Cond, st.Pos)
	case *ForStmt:
		c.pushScope()
		defer c.popScope()
		if st.Init != nil {
			if err := c.checkStmt(st.Init, loopDepth); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := c.checkCond(st.Cond, st.Pos); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if _, err := c.checkExpr(st.Post); err != nil {
				return err
			}
		}
		return c.checkStmt(st.Body, loopDepth+1)
	case *ReturnStmt:
		if st.X == nil {
			if c.fn.Ret != TypeVoid {
				return fmt.Errorf("%s: missing return value in %q", st.Pos, c.fn.Name)
			}
			return nil
		}
		t, err := c.checkExpr(st.X)
		if err != nil {
			return err
		}
		if t != c.fn.Ret {
			return fmt.Errorf("%s: returning %s from %s function %q", st.Pos, t, c.fn.Ret, c.fn.Name)
		}
		return nil
	case *BreakStmt:
		if loopDepth == 0 {
			return fmt.Errorf("%s: break outside loop", st.Pos)
		}
		return nil
	case *ContinueStmt:
		if loopDepth == 0 {
			return fmt.Errorf("%s: continue outside loop", st.Pos)
		}
		return nil
	}
	return fmt.Errorf("unknown statement %T", s)
}

func (c *checker) checkCond(x Expr, pos Pos) error {
	t, err := c.checkExpr(x)
	if err != nil {
		return err
	}
	if t != TypeInt {
		return fmt.Errorf("%s: condition must be int, got %s", pos, t)
	}
	return nil
}

func (c *checker) checkExpr(x Expr) (Type, error) {
	switch e := x.(type) {
	case *IntLit:
		e.setType(TypeInt)
		return TypeInt, nil
	case *FloatLit:
		e.setType(TypeFloat)
		return TypeFloat, nil
	case *Ident:
		t, ok := c.lookup(e.Name)
		if !ok {
			return TypeVoid, fmt.Errorf("%s: undeclared identifier %q", e.Pos, e.Name)
		}
		e.setType(t)
		return t, nil
	case *IndexExpr:
		bt, ok := c.lookup(e.Base.Name)
		if !ok {
			return TypeVoid, fmt.Errorf("%s: undeclared identifier %q", e.Pos, e.Base.Name)
		}
		if !bt.IsArray() {
			return TypeVoid, fmt.Errorf("%s: indexing non-array %q (%s)", e.Pos, e.Base.Name, bt)
		}
		e.Base.setType(bt)
		it, err := c.checkExpr(e.Idx)
		if err != nil {
			return TypeVoid, err
		}
		if it != TypeInt {
			return TypeVoid, fmt.Errorf("%s: array index must be int, got %s", e.Pos, it)
		}
		e.setType(bt.Elem())
		return bt.Elem(), nil
	case *CallExpr:
		sig, ok := c.funcs[e.Fn]
		if !ok {
			return TypeVoid, fmt.Errorf("%s: call to undefined function %q", e.Pos, e.Fn)
		}
		if len(e.Args) != len(sig.Params) {
			return TypeVoid, fmt.Errorf("%s: %q expects %d arguments, got %d", e.Pos, e.Fn, len(sig.Params), len(e.Args))
		}
		for i, arg := range e.Args {
			at, err := c.checkExpr(arg)
			if err != nil {
				return TypeVoid, err
			}
			if at != sig.Params[i] {
				return TypeVoid, fmt.Errorf("%s: argument %d of %q: expected %s, got %s", e.Pos, i+1, e.Fn, sig.Params[i], at)
			}
		}
		e.setType(sig.Ret)
		return sig.Ret, nil
	case *UnaryExpr:
		t, err := c.checkExpr(e.X)
		if err != nil {
			return TypeVoid, err
		}
		switch e.Op {
		case UnNeg:
			if t != TypeInt && t != TypeFloat {
				return TypeVoid, fmt.Errorf("%s: cannot negate %s", e.Pos, t)
			}
			e.setType(t)
			return t, nil
		case UnNot, UnBitNot:
			if t != TypeInt {
				return TypeVoid, fmt.Errorf("%s: operator requires int, got %s", e.Pos, t)
			}
			e.setType(TypeInt)
			return TypeInt, nil
		}
		return TypeVoid, fmt.Errorf("%s: unknown unary op", e.Pos)
	case *BinaryExpr:
		lt, err := c.checkExpr(e.L)
		if err != nil {
			return TypeVoid, err
		}
		rt, err := c.checkExpr(e.R)
		if err != nil {
			return TypeVoid, err
		}
		if lt != rt {
			return TypeVoid, fmt.Errorf("%s: operand type mismatch: %s %s %s", e.Pos, lt, e.Op, rt)
		}
		switch e.Op {
		case BinAdd, BinSub, BinMul, BinDiv:
			if lt != TypeInt && lt != TypeFloat {
				return TypeVoid, fmt.Errorf("%s: arithmetic on %s", e.Pos, lt)
			}
			e.setType(lt)
			return lt, nil
		case BinRem, BinAnd, BinOr, BinXor, BinShl, BinShr, BinLAnd, BinLOr:
			if lt != TypeInt {
				return TypeVoid, fmt.Errorf("%s: operator %s requires int operands, got %s", e.Pos, e.Op, lt)
			}
			e.setType(TypeInt)
			return TypeInt, nil
		case BinLt, BinLe, BinGt, BinGe, BinEq, BinNe:
			if lt != TypeInt && lt != TypeFloat {
				return TypeVoid, fmt.Errorf("%s: comparison on %s", e.Pos, lt)
			}
			e.setType(TypeInt)
			return TypeInt, nil
		}
		return TypeVoid, fmt.Errorf("%s: unknown binary op", e.Pos)
	case *CondExpr:
		if err := c.checkCond(e.Cond, e.Pos); err != nil {
			return TypeVoid, err
		}
		tt, err := c.checkExpr(e.Then)
		if err != nil {
			return TypeVoid, err
		}
		et, err := c.checkExpr(e.Else)
		if err != nil {
			return TypeVoid, err
		}
		if tt != et {
			return TypeVoid, fmt.Errorf("%s: ternary branches differ: %s vs %s", e.Pos, tt, et)
		}
		e.setType(tt)
		return tt, nil
	case *AssignExpr:
		lt, err := c.checkLvalue(e.Lhs)
		if err != nil {
			return TypeVoid, err
		}
		rt, err := c.checkExpr(e.Rhs)
		if err != nil {
			return TypeVoid, err
		}
		if lt != rt {
			return TypeVoid, fmt.Errorf("%s: cannot assign %s to %s", e.Pos, rt, lt)
		}
		if e.OpValid {
			switch e.Op {
			case BinRem, BinAnd, BinOr, BinXor, BinShl, BinShr:
				if lt != TypeInt {
					return TypeVoid, fmt.Errorf("%s: compound operator %s requires int", e.Pos, e.Op)
				}
			}
		}
		e.setType(lt)
		return lt, nil
	case *IncDecExpr:
		lt, err := c.checkLvalue(e.Lhs)
		if err != nil {
			return TypeVoid, err
		}
		if lt != TypeInt {
			return TypeVoid, fmt.Errorf("%s: ++/-- requires int lvalue, got %s", e.Pos, lt)
		}
		e.setType(TypeInt)
		return TypeInt, nil
	}
	return TypeVoid, fmt.Errorf("unknown expression %T", x)
}

func (c *checker) checkLvalue(x Expr) (Type, error) {
	switch e := x.(type) {
	case *Ident:
		t, err := c.checkExpr(e)
		if err != nil {
			return TypeVoid, err
		}
		if t.IsArray() {
			return TypeVoid, fmt.Errorf("%s: cannot assign to array %q", e.Pos, e.Name)
		}
		return t, nil
	case *IndexExpr:
		return c.checkExpr(e)
	}
	return TypeVoid, fmt.Errorf("expression is not assignable")
}
