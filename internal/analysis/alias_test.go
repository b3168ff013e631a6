package analysis_test

import (
	"strings"
	"testing"

	"fpint/internal/analysis"
	"fpint/internal/dataflow"
	"fpint/internal/ir"
)

// buildAliasFunc builds one straight-line function that touches the
// globals a and b and a local array at a handful of known and unknown
// offsets, returning the memory instructions by label.
func buildAliasFunc(t *testing.T) (*ir.Module, *ir.Func, map[string]*ir.Instr) {
	t.Helper()
	mod := ir.NewModule()
	mod.Globals = append(mod.Globals,
		&ir.Global{Name: "a", Words: 10},
		&ir.Global{Name: "b", Words: 10})

	fn := ir.NewFunc("f", ir.I64)
	slot := fn.AddLocalSlot(4)
	va := fn.NewVReg(ir.I64)
	vb := fn.NewVReg(ir.I64)
	vl := fn.NewVReg(ir.I64)
	vp := fn.NewVReg(ir.I64)
	vx := fn.NewVReg(ir.I64)
	blk := fn.NewBlock()
	fn.Entry = blk

	ins := map[string]*ir.Instr{}
	blk.Append(&ir.Instr{Op: ir.OpAddrGlobal, Dst: va, Sym: "a"})
	blk.Append(&ir.Instr{Op: ir.OpAddrGlobal, Dst: vb, Sym: "b"})
	blk.Append(&ir.Instr{Op: ir.OpAddrLocal, Dst: vl, Imm: slot})
	ins["load-a0"] = blk.Append(&ir.Instr{Op: ir.OpLoad, Dst: vx, Args: []ir.VReg{va}})
	ins["load-a8"] = blk.Append(&ir.Instr{Op: ir.OpLoad, Dst: vx, Args: []ir.VReg{va}, Imm: 8})
	ins["store-b0"] = blk.Append(&ir.Instr{Op: ir.OpStore, Args: []ir.VReg{vx, vb}})
	ins["store-local"] = blk.Append(&ir.Instr{Op: ir.OpStore, Args: []ir.VReg{vx, vl}})
	// An address loaded from memory is opaque: accesses through it may
	// alias anything.
	blk.Append(&ir.Instr{Op: ir.OpLoad, Dst: vp, Args: []ir.VReg{va}, Imm: 16})
	ins["load-unknown"] = blk.Append(&ir.Instr{Op: ir.OpLoad, Dst: vx, Args: []ir.VReg{vp}})
	blk.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{vx}})

	fn.RecomputePreds()
	fn.Renumber()
	mod.AddFunc(fn)
	return mod, fn, ins
}

func analyzeAliases(fn *ir.Func) *analysis.Aliases {
	cfg := analysis.BuildCFG(fn)
	rd := dataflow.ComputeReachingDefs(fn)
	return analysis.AnalyzeAliases(fn, rd, analysis.AnalyzeRanges(fn, cfg))
}

// TestMayAliasPartitionedByBase: every load and store gets the location
// proveSafeAddrs reads. Known bases keep their exact offset, so accesses
// to distinct bases, or to disjoint spans of one base, stay apart; an
// address loaded from memory gets the unknown base, which may alias
// anything.
func TestMayAliasPartitionedByBase(t *testing.T) {
	_, fn, ins := buildAliasFunc(t)
	al := analyzeAliases(fn)

	var slot int64
	for _, in := range fn.Entry.Instrs {
		if in.Op == ir.OpAddrLocal {
			slot = in.Imm
		}
	}
	a := analysis.Base{Kind: analysis.BaseGlobal, Sym: "a"}
	want := map[string]analysis.Loc{
		"load-a0":      {Base: a, Off: analysis.Const(0)},
		"load-a8":      {Base: a, Off: analysis.Const(8)},
		"store-b0":     {Base: analysis.Base{Kind: analysis.BaseGlobal, Sym: "b"}, Off: analysis.Const(0)},
		"store-local":  {Base: analysis.Base{Kind: analysis.BaseLocal, Slot: slot}, Off: analysis.Const(0)},
		"load-unknown": {Base: analysis.Base{Kind: analysis.BaseUnknown}, Off: analysis.Top()},
	}
	for name, w := range want {
		if got, ok := al.Locs[ins[name].ID]; !ok || got != w {
			t.Errorf("Locs[%s] = %v/%v (present %v), want %v/%v", name, got.Base, got.Off, ok, w.Base, w.Off)
		}
	}
	mem := 0
	for _, in := range fn.Entry.Instrs {
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			mem++
		}
	}
	if len(al.Locs) != mem {
		t.Errorf("%d locations for %d loads and stores", len(al.Locs), mem)
	}
}

// TestAddressTakenEscape: a base escapes when its address is stored,
// passed to a call, or returned — and only then.
func TestAddressTakenEscape(t *testing.T) {
	build := func(publish func(fn *ir.Func, blk *ir.Block, addr, scratch ir.VReg)) *analysis.Aliases {
		fn := ir.NewFunc("f", ir.I64)
		addr := fn.NewVReg(ir.I64)
		scratch := fn.NewVReg(ir.I64)
		blk := fn.NewBlock()
		fn.Entry = blk
		blk.Append(&ir.Instr{Op: ir.OpAddrGlobal, Dst: addr, Sym: "g"})
		publish(fn, blk, addr, scratch)
		fn.RecomputePreds()
		fn.Renumber()
		return analyzeAliases(fn)
	}
	gBase := analysis.Base{Kind: analysis.BaseGlobal, Sym: "g"}

	cases := []struct {
		name    string
		publish func(fn *ir.Func, blk *ir.Block, addr, scratch ir.VReg)
		escaped bool
	}{
		{"stored", func(fn *ir.Func, blk *ir.Block, addr, scratch ir.VReg) {
			other := fn.NewVReg(ir.I64)
			blk.Append(&ir.Instr{Op: ir.OpAddrGlobal, Dst: other, Sym: "cell"})
			blk.Append(&ir.Instr{Op: ir.OpStore, Args: []ir.VReg{addr, other}})
			blk.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{scratch}})
		}, true},
		{"call-arg", func(fn *ir.Func, blk *ir.Block, addr, scratch ir.VReg) {
			blk.Append(&ir.Instr{Op: ir.OpCall, Dst: scratch, Sym: "sink", Args: []ir.VReg{addr}})
			blk.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{scratch}})
		}, true},
		{"returned", func(fn *ir.Func, blk *ir.Block, addr, scratch ir.VReg) {
			blk.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{addr}})
		}, true},
		{"private", func(fn *ir.Func, blk *ir.Block, addr, scratch ir.VReg) {
			blk.Append(&ir.Instr{Op: ir.OpLoad, Dst: scratch, Args: []ir.VReg{addr}})
			blk.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{scratch}})
		}, false},
	}
	for _, c := range cases {
		al := build(c.publish)
		if got := al.Escaped[gBase]; got != c.escaped {
			t.Errorf("%s: Escaped[g] = %v, want %v", c.name, got, c.escaped)
		}
	}
}

// TestSafeAddrProof: the end-to-end proof chain (decompose + range +
// object size) admits exactly the provably in-bounds accesses.
func TestSafeAddrProof(t *testing.T) {
	mod, fn, ins := buildAliasFunc(t)
	// One out-of-bounds access: a has 10 words = 80 bytes, so offset 80
	// starts past the last valid word.
	va := ir.VReg(0)
	for _, in := range fn.Entry.Instrs {
		if in.Op == ir.OpAddrGlobal && in.Sym == "a" {
			va = in.Dst
		}
	}
	vy := fn.NewVReg(ir.I64)
	ret := fn.Entry.Instrs[len(fn.Entry.Instrs)-1]
	oob := &ir.Instr{Op: ir.OpLoad, Dst: vy, Args: []ir.VReg{va}, Imm: 80}
	fn.Entry.InsertBefore(oob, ret.Idx)
	ins["load-oob"] = oob
	fn.Renumber()

	ff := analysis.AnalyzeFunc(fn, mod)
	wantSafe := map[string]bool{
		"load-a0":      true,
		"load-a8":      true,
		"store-b0":     true,
		"store-local":  true,
		"load-unknown": false,
		"load-oob":     false,
	}
	for name, want := range wantSafe {
		reason, ok := ff.SafeAddr(ins[name].ID)
		if ok != want {
			t.Errorf("SafeAddr(%s) = %v, want %v", name, ok, want)
		}
		if ok && !strings.Contains(reason, "within") {
			t.Errorf("SafeAddr(%s) reason %q lacks bounds statement", name, reason)
		}
	}
	// The four labeled safe accesses plus the unlabeled pointer load at
	// a+16 that feeds load-unknown.
	safe := 0
	for id := 0; id < fn.NumInstrs(); id++ {
		if _, ok := ff.SafeAddr(id); ok {
			safe++
		}
	}
	if safe != 5 {
		t.Errorf("%d accesses proven safe, want 5", safe)
	}
}
