package analysis

import (
	"fmt"

	"fpint/internal/dataflow"
	"fpint/internal/ir"
)

// BaseKind classifies the base object of a memory address.
type BaseKind uint8

// Base kinds.
const (
	BaseUnknown BaseKind = iota // not decomposable: may alias anything
	BaseGlobal                  // a module-scope global (Sym)
	BaseLocal                   // a frame-local array slot (Slot)
)

// Base identifies one memory object. The may-alias analysis is partitioned
// by base: accesses to distinct known bases never alias; accesses to the
// same base alias only when their byte-offset intervals can overlap.
type Base struct {
	Kind BaseKind
	Sym  string // BaseGlobal
	Slot int64  // BaseLocal
}

// String renders the base for diagnostics.
func (b Base) String() string {
	switch b.Kind {
	case BaseGlobal:
		return b.Sym
	case BaseLocal:
		return fmt.Sprintf("slot%d", b.Slot)
	}
	return "?"
}

// Loc is an abstract memory location: a base object plus the interval of
// byte offsets the access may start at (the access itself spans 8 bytes).
type Loc struct {
	Base Base
	Off  Interval
}

// Aliases is the result of the flow-insensitive may-alias/address-taken
// analysis of one function: the abstract location of every load and store,
// keyed by instruction ID.
type Aliases struct {
	// Locs[instrID] is the location accessed by that load/store. Every
	// load/store of the function has an entry; undecomposable addresses
	// get BaseUnknown with a Top offset.
	Locs map[int]Loc

	// Escaped marks bases whose address flows somewhere the analysis
	// cannot follow: into a call argument, a stored value, or a returned
	// value. Accesses to an escaped base may alias accesses made by code
	// outside the function.
	Escaped map[Base]bool
}

// decomposer resolves address operands to (base, offset-interval) pairs by
// recursing through reaching definitions, memoized per definition site.
type decomposer struct {
	fn     *ir.Func
	rd     *dataflow.ReachingDefs
	ranges *Ranges

	memo  map[int]decomp // per definition instruction ID
	state map[int]uint8  // 1 = in progress (cycle guard), 2 = done
}

type decomp struct {
	loc Loc
	ok  bool
}

func (d *decomposer) fail() decomp { return decomp{} }

// decomposeDef resolves the value defined by instruction def as an address.
func (d *decomposer) decomposeDef(def *ir.Instr) decomp {
	if d.state[def.ID] == 1 {
		return d.fail() // cyclic address recurrence (pointer chasing): give up
	}
	if d.state[def.ID] == 2 {
		return d.memo[def.ID]
	}
	d.state[def.ID] = 1
	res := d.decomposeDefUncached(def)
	d.state[def.ID] = 2
	d.memo[def.ID] = res
	return res
}

func (d *decomposer) decomposeDefUncached(def *ir.Instr) decomp {
	switch def.Op {
	case ir.OpAddrGlobal:
		return decomp{loc: Loc{Base: Base{Kind: BaseGlobal, Sym: def.Sym}, Off: Const(def.Imm)}, ok: true}
	case ir.OpAddrLocal:
		return decomp{loc: Loc{Base: Base{Kind: BaseLocal, Slot: def.Imm}, Off: Const(0)}, ok: true}
	case ir.OpCopy:
		return d.decomposeArg(def, 0)
	case ir.OpAdd:
		if left := d.decomposeArg(def, 0); left.ok {
			return d.shiftBy(left, d.valueOfArg(def, 1))
		}
		if !def.ImmArg {
			if right := d.decomposeArg(def, 1); right.ok {
				return d.shiftBy(right, d.valueOfArg(def, 0))
			}
		}
	case ir.OpSub:
		if left := d.decomposeArg(def, 0); left.ok {
			return d.shiftBy(left, Const(0).Sub(d.valueOfArg(def, 1)))
		}
	}
	return d.fail()
}

func (d *decomposer) shiftBy(base decomp, delta Interval) decomp {
	if delta.IsBot() {
		return d.fail()
	}
	base.loc.Off = base.loc.Off.Add(delta)
	return base
}

// decomposeArg resolves operand k of instr as an address: every reaching
// definition must decompose to the same base; the offsets join.
func (d *decomposer) decomposeArg(instr *ir.Instr, k int) decomp {
	if instr.ImmArg && k == 1 {
		return d.fail() // an immediate is a value, never a base
	}
	if k >= len(instr.Args) || d.fn.VRegType(instr.Args[k]) != ir.I64 {
		return d.fail()
	}
	uses := d.rd.UseDefs[instr.ID]
	if k >= len(uses) || len(uses[k]) == 0 {
		return d.fail()
	}
	var acc decomp
	for i, siteIdx := range uses[k] {
		site := d.rd.Site(siteIdx)
		if site.Instr == nil {
			return d.fail() // parameters are opaque values
		}
		dc := d.decomposeDef(site.Instr)
		if !dc.ok {
			return d.fail()
		}
		if i == 0 {
			acc = dc
			continue
		}
		if dc.loc.Base != acc.loc.Base {
			return d.fail()
		}
		acc.loc.Off = acc.loc.Off.Join(dc.loc.Off)
	}
	return acc
}

// valueOfArg is the numeric interval of operand k, joined over reaching
// definitions using the range analysis' per-definition results.
func (d *decomposer) valueOfArg(instr *ir.Instr, k int) Interval {
	if instr.ImmArg && k == 1 {
		return Const(instr.Imm)
	}
	if k >= len(instr.Args) || d.fn.VRegType(instr.Args[k]) != ir.I64 {
		return Top()
	}
	uses := d.rd.UseDefs[instr.ID]
	if k >= len(uses) || len(uses[k]) == 0 {
		return Top()
	}
	acc := Bot()
	for _, siteIdx := range uses[k] {
		site := d.rd.Site(siteIdx)
		if site.Instr == nil {
			return Top() // parameter
		}
		iv, ok := d.ranges.ValOut[site.Instr.ID]
		if !ok {
			return Top()
		}
		acc = acc.Join(iv)
	}
	return acc
}

// AnalyzeAliases computes the abstract location of every memory access and
// the escaped-base set for fn.
func AnalyzeAliases(fn *ir.Func, rd *dataflow.ReachingDefs, ranges *Ranges) *Aliases {
	al := &Aliases{Locs: make(map[int]Loc), Escaped: make(map[Base]bool)}
	d := &decomposer{fn: fn, rd: rd, ranges: ranges,
		memo: make(map[int]decomp), state: make(map[int]uint8)}

	markEscape := func(instr *ir.Instr, k int) {
		if dc := d.decomposeArg(instr, k); dc.ok {
			al.Escaped[dc.loc.Base] = true
		}
	}

	for _, b := range fn.Blocks {
		for _, instr := range b.Instrs {
			switch instr.Op {
			case ir.OpLoad:
				loc := Loc{Base: Base{Kind: BaseUnknown}, Off: Top()}
				if dc := d.decomposeArg(instr, 0); dc.ok {
					loc = dc.loc
					loc.Off = loc.Off.Add(Const(instr.Imm))
				}
				al.Locs[instr.ID] = loc
			case ir.OpStore:
				loc := Loc{Base: Base{Kind: BaseUnknown}, Off: Top()}
				if dc := d.decomposeArg(instr, 1); dc.ok {
					loc = dc.loc
					loc.Off = loc.Off.Add(Const(instr.Imm))
				}
				al.Locs[instr.ID] = loc
				markEscape(instr, 0) // storing an address publishes it
			case ir.OpCall:
				for k := range instr.Args {
					markEscape(instr, k)
				}
			case ir.OpRet:
				for k := range instr.Args {
					markEscape(instr, k)
				}
			}
		}
	}
	return al
}
