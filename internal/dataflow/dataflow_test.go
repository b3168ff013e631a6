package dataflow_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"fpint/internal/dataflow"
	"fpint/internal/ir"
)

func TestBitSetBasics(t *testing.T) {
	s := dataflow.NewBitSet(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Fatalf("bit %d set in empty set", i)
		}
		s.Set(i)
		if !s.Has(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := members(s); len(got) != 8 {
		t.Fatalf("members = %v, want 8", got)
	}
	s.Clear(64)
	if s.Has(64) || len(members(s)) != 7 {
		t.Fatalf("clear failed")
	}
}

// members lists the set's members through ForEach.
func members(s *dataflow.BitSet) []int {
	var out []int
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

func TestBitSetUnionCopyFrom(t *testing.T) {
	a := dataflow.NewBitSet(200)
	b := dataflow.NewBitSet(200)
	a.Set(3)
	a.Set(150)
	b.Set(150)
	b.Set(199)
	c := dataflow.NewBitSet(200)
	c.Set(7)
	c.CopyFrom(a)
	if got := members(c); fmt.Sprint(got) != "[3 150]" {
		t.Fatalf("CopyFrom gave %v, want [3 150]", got)
	}
	if changed := c.UnionWith(b); !changed {
		t.Fatal("union reported no change")
	}
	for _, i := range []int{3, 150, 199} {
		if !c.Has(i) {
			t.Fatalf("union missing %d", i)
		}
	}
	if changed := c.UnionWith(b); changed {
		t.Fatal("second union reported change")
	}
	if got := members(a); fmt.Sprint(got) != "[3 150]" {
		t.Fatalf("union changed its source's copy: %v", got)
	}
}

func TestBitSetForEachOrdered(t *testing.T) {
	s := dataflow.NewBitSet(500)
	want := []int{2, 64, 65, 300, 499}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestBitSetQuickSetHasInvariant(t *testing.T) {
	f := func(indices []uint16) bool {
		s := dataflow.NewBitSet(1 << 16)
		seen := make(map[int]bool)
		for _, u := range indices {
			s.Set(int(u))
			seen[int(u)] = true
		}
		for i := range seen {
			if !s.Has(i) {
				return false
			}
		}
		return len(members(s)) == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// buildDiamond constructs:
//
//	b0: v1 = const 1; v2 = const 2; br v1 -> b1, b2
//	b1: v2 = const 3; jmp b3
//	b2: (nothing)    jmp b3
//	b3: v3 = add v2, v2; ret v3
//
// At the add, reaching defs of v2 are the const in b0 (via b2) and the
// const in b1.
func buildDiamond() (*ir.Func, *ir.Instr, *ir.Instr, *ir.Instr) {
	fn := ir.NewFunc("diamond", ir.I64)
	v1 := fn.NewVReg(ir.I64)
	v2 := fn.NewVReg(ir.I64)
	v3 := fn.NewVReg(ir.I64)
	b0 := fn.NewBlock()
	b1 := fn.NewBlock()
	b2 := fn.NewBlock()
	b3 := fn.NewBlock()
	fn.Entry = b0

	b0.Append(&ir.Instr{Op: ir.OpConst, Dst: v1, Imm: 1})
	def0 := b0.Append(&ir.Instr{Op: ir.OpConst, Dst: v2, Imm: 2})
	b0.Append(&ir.Instr{Op: ir.OpBr, Args: []ir.VReg{v1}})
	b0.Succs = []*ir.Block{b1, b2}

	def1 := b1.Append(&ir.Instr{Op: ir.OpConst, Dst: v2, Imm: 3})
	b1.Append(&ir.Instr{Op: ir.OpJmp})
	b1.Succs = []*ir.Block{b3}

	b2.Append(&ir.Instr{Op: ir.OpNop})
	b2.Append(&ir.Instr{Op: ir.OpJmp})
	b2.Succs = []*ir.Block{b3}

	use := b3.Append(&ir.Instr{Op: ir.OpAdd, Dst: v3, Args: []ir.VReg{v2, v2}})
	b3.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{v3}})

	fn.RecomputePreds()
	fn.Renumber()
	return fn, def0, def1, use
}

func TestReachingDefsDiamond(t *testing.T) {
	fn, def0, def1, use := buildDiamond()
	rd := dataflow.ComputeReachingDefs(fn)
	defs := rd.UseDefs[use.ID][0]
	if len(defs) != 2 {
		t.Fatalf("got %d reaching defs, want 2", len(defs))
	}
	got := map[int]bool{}
	for _, d := range defs {
		got[d] = true
	}
	if !got[def0.ID] || !got[def1.ID] {
		t.Fatalf("reaching defs %v, want {%d, %d}", defs, def0.ID, def1.ID)
	}
}

func TestReachingDefsKill(t *testing.T) {
	// Straight line: v = 1; v = 2; use v -> only the second def reaches.
	fn := ir.NewFunc("kill", ir.I64)
	v := fn.NewVReg(ir.I64)
	r := fn.NewVReg(ir.I64)
	b := fn.NewBlock()
	fn.Entry = b
	b.Append(&ir.Instr{Op: ir.OpConst, Dst: v, Imm: 1})
	second := b.Append(&ir.Instr{Op: ir.OpConst, Dst: v, Imm: 2})
	use := b.Append(&ir.Instr{Op: ir.OpCopy, Dst: r, Args: []ir.VReg{v}})
	b.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{r}})
	fn.Renumber()
	rd := dataflow.ComputeReachingDefs(fn)
	defs := rd.UseDefs[use.ID][0]
	if len(defs) != 1 || defs[0] != second.ID {
		t.Fatalf("reaching defs = %v, want [%d]", defs, second.ID)
	}
}

func TestReachingDefsParams(t *testing.T) {
	fn := ir.NewFunc("param", ir.I64)
	p := fn.NewVReg(ir.I64)
	fn.Params = []ir.VReg{p}
	r := fn.NewVReg(ir.I64)
	b := fn.NewBlock()
	fn.Entry = b
	use := b.Append(&ir.Instr{Op: ir.OpCopy, Dst: r, Args: []ir.VReg{p}})
	b.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{r}})
	fn.Renumber()
	rd := dataflow.ComputeReachingDefs(fn)
	defs := rd.UseDefs[use.ID][0]
	if len(defs) != 1 || defs[0] < fn.NumInstrs() {
		t.Fatalf("param use should see exactly the param site, got %v", defs)
	}
	site := rd.Site(defs[0])
	if site.Instr != nil || site.ParamIdx != 0 {
		t.Fatalf("bad site %+v", site)
	}
}

func TestLivenessLoop(t *testing.T) {
	// b0: v1 = const; jmp b1
	// b1: v2 = add v1, v1; br v2 -> b1, b2
	// b2: ret v1
	// v1 is live throughout the loop.
	const v1, v2 = 1, 2
	succs := [][]int{{1}, {1, 2}, nil}
	use := bitSets(3, nil, []int{v1}, []int{v1})
	def := bitSets(3, []int{v1}, []int{v2}, nil)
	in, out := dataflow.SolveLiveness(succs, use, def)
	if !in[1].Has(v1) {
		t.Error("v1 not live into loop")
	}
	if !out[1].Has(v1) {
		t.Error("v1 not live out of loop body")
	}
	if in[0].Has(v1) {
		t.Error("v1 live into entry before its def")
	}
	if out[2].Has(v1) {
		t.Error("v1 live out of exit")
	}
}

// bitSets returns one set of capacity n per list of members.
func bitSets(n int, members ...[]int) []dataflow.BitSet {
	sets := dataflow.NewBitSets(len(members), n)
	for i, m := range members {
		for _, v := range m {
			sets[i].Set(v)
		}
	}
	return sets
}
