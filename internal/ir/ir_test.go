package ir_test

import (
	"strings"
	"testing"

	"fpint/internal/ir"
)

// makeLoop builds: entry -> header <-> body, header -> exit.
func makeLoop(t *testing.T) (*ir.Func, *ir.Block, *ir.Block, *ir.Block, *ir.Block) {
	t.Helper()
	fn := ir.NewFunc("loop", ir.I64)
	entry := fn.NewBlock()
	header := fn.NewBlock()
	body := fn.NewBlock()
	exit := fn.NewBlock()
	fn.Entry = entry

	c := fn.NewVReg(ir.I64)
	entry.Append(&ir.Instr{Op: ir.OpConst, Dst: c, Imm: 1})
	entry.Append(&ir.Instr{Op: ir.OpJmp})
	entry.Succs = []*ir.Block{header}

	header.Append(&ir.Instr{Op: ir.OpBr, Args: []ir.VReg{c}})
	header.Succs = []*ir.Block{body, exit}

	body.Append(&ir.Instr{Op: ir.OpJmp})
	body.Succs = []*ir.Block{header}

	r := fn.NewVReg(ir.I64)
	exit.Append(&ir.Instr{Op: ir.OpConst, Dst: r, Imm: 0})
	exit.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{r}})

	fn.RecomputePreds()
	fn.Renumber()
	return fn, entry, header, body, exit
}

func TestVerifyAcceptsWellFormed(t *testing.T) {
	fn, _, _, _, _ := makeLoop(t)
	if err := fn.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyCatchesBadSuccCount(t *testing.T) {
	fn, _, header, _, _ := makeLoop(t)
	header.Succs = header.Succs[:1] // br with one successor
	if err := fn.Verify(); err == nil {
		t.Fatal("missing successor not diagnosed")
	}
}

func TestVerifyCatchesMisplacedTerminator(t *testing.T) {
	fn, entry, _, _, _ := makeLoop(t)
	// Insert an instruction after the terminator.
	v := fn.NewVReg(ir.I64)
	entry.Append(&ir.Instr{Op: ir.OpConst, Dst: v, Imm: 9})
	fn.Renumber()
	if err := fn.Verify(); err == nil {
		t.Fatal("instruction after terminator not diagnosed")
	}
}

// TestVerifyRejectsStaleNumbering: an edit that leaves an instruction's
// Blk, Idx or ID other than Renumber would set fails Verify, and
// renumbering clears it. Readers keyed by instruction ID (the RDG, the
// analyses) rely on this instead of renumbering the function themselves.
func TestVerifyRejectsStaleNumbering(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(fn *ir.Func, entry, exit *ir.Block)
	}{
		{"inserted instruction", func(fn *ir.Func, entry, _ *ir.Block) {
			entry.InsertBefore(&ir.Instr{Op: ir.OpConst, Dst: fn.NewVReg(ir.I64), Imm: 2}, 0)
		}},
		{"removed instruction", func(_ *ir.Func, entry, _ *ir.Block) { entry.RemoveAt(0) }},
		{"stale Blk", func(_ *ir.Func, entry, exit *ir.Block) { entry.Instrs[0].Blk = exit }},
		{"stale Idx", func(_ *ir.Func, _, exit *ir.Block) { exit.Instrs[1].Idx = 0 }},
		{"stale ID", func(_ *ir.Func, entry, _ *ir.Block) { entry.Instrs[1].ID = 0 }},
	} {
		fn, entry, _, _, exit := makeLoop(t)
		c.edit(fn, entry, exit)
		if err := fn.Verify(); err == nil || !strings.Contains(err.Error(), "stale numbering") {
			t.Errorf("%s: Verify() = %v, want a stale-numbering error", c.name, err)
		}
		fn.Renumber()
		if err := fn.Verify(); err != nil {
			t.Errorf("%s: after Renumber, Verify() = %v", c.name, err)
		}
	}
}

func TestVerifyCatchesTypeError(t *testing.T) {
	fn := ir.NewFunc("bad", ir.I64)
	b := fn.NewBlock()
	fn.Entry = b
	f := fn.NewVReg(ir.F64)
	i := fn.NewVReg(ir.I64)
	b.Append(&ir.Instr{Op: ir.OpConst, Dst: f, FImm: 1, IsFloat: true})
	b.Append(&ir.Instr{Op: ir.OpAdd, Dst: i, Args: []ir.VReg{f, f}})
	b.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{i}})
	fn.Renumber()
	if err := fn.Verify(); err == nil {
		t.Fatal("float operand to integer add not diagnosed")
	}
}

// TestVerifyNamesFirstStalePred: when several predecessors disagree with
// the successor lists, Verify names the one with the lowest ID, on every
// call.
func TestVerifyNamesFirstStalePred(t *testing.T) {
	fn := ir.NewFunc("join", ir.I64)
	var b [4]*ir.Block
	for i := range b {
		b[i] = fn.NewBlock()
	}
	fn.Entry = b[0]
	for _, src := range b[:3] {
		src.Append(&ir.Instr{Op: ir.OpJmp})
		src.Succs = []*ir.Block{b[3]}
	}
	r := fn.NewVReg(ir.I64)
	b[3].Append(&ir.Instr{Op: ir.OpConst, Dst: r, Imm: 0})
	b[3].Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{r}})
	fn.Renumber()
	for _, c := range []struct {
		preds []*ir.Block
		want  string
	}{
		{[]*ir.Block{b[0]}, "join: b3: pred list inconsistent with succ of b1"},
		// b2 and b0 are each listed twice for one edge.
		{[]*ir.Block{b[2], b[2], b[1], b[0], b[0]}, "join: b3: stale pred b0"},
	} {
		b[3].Preds = c.preds
		for i := 0; i < 200; i++ {
			if err := fn.Verify(); err == nil || err.Error() != c.want {
				t.Fatalf("call %d: Verify() = %v, want %q", i, err, c.want)
			}
		}
	}
}

func TestLoopDepths(t *testing.T) {
	fn, entry, header, body, exit := makeLoop(t)
	fn.ComputeLoopDepths()
	if entry.LoopDepth != 0 || exit.LoopDepth != 0 {
		t.Errorf("entry/exit depth = %d/%d, want 0/0", entry.LoopDepth, exit.LoopDepth)
	}
	if header.LoopDepth != 1 || body.LoopDepth != 1 {
		t.Errorf("header/body depth = %d/%d, want 1/1", header.LoopDepth, body.LoopDepth)
	}
	loops := fn.NaturalLoops()
	if len(loops) != 1 || loops[0].Header != header || len(loops[0].Blocks) != 2 ||
		!loops[0].Contains(header) || !loops[0].Contains(body) {
		t.Errorf("natural loops = %+v, want one loop {header, body} headed by header", loops)
	}
}

func TestRemoveUnreachable(t *testing.T) {
	fn, _, _, _, _ := makeLoop(t)
	dead := fn.NewBlock()
	v := fn.NewVReg(ir.I64)
	dead.Append(&ir.Instr{Op: ir.OpConst, Dst: v, Imm: 5})
	dead.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{v}})
	before := len(fn.Blocks)
	fn.RemoveUnreachable()
	if len(fn.Blocks) != before-1 {
		t.Fatalf("unreachable block not removed")
	}
	if err := fn.Verify(); err != nil {
		t.Fatalf("verify after removal: %v", err)
	}
}

func TestRenumberSequential(t *testing.T) {
	fn, _, _, _, _ := makeLoop(t)
	fn.Renumber()
	want := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.ID != want {
				t.Fatalf("instr ID %d, want %d", in.ID, want)
			}
			if in.Blk != b {
				t.Fatalf("instr block pointer stale")
			}
			want++
		}
	}
	if fn.NumInstrs() != want {
		t.Fatalf("NumInstrs = %d, want %d", fn.NumInstrs(), want)
	}
}

func TestInsertRemove(t *testing.T) {
	fn := ir.NewFunc("edit", ir.Void)
	b := fn.NewBlock()
	fn.Entry = b
	v1 := fn.NewVReg(ir.I64)
	v2 := fn.NewVReg(ir.I64)
	b.Append(&ir.Instr{Op: ir.OpConst, Dst: v1, Imm: 1})
	b.Append(&ir.Instr{Op: ir.OpRet})
	b.InsertBefore(&ir.Instr{Op: ir.OpConst, Dst: v2, Imm: 2}, 1)
	if len(b.Instrs) != 3 || b.Instrs[1].Dst != v2 {
		t.Fatalf("insert failed: %v", b.Instrs)
	}
	for i, in := range b.Instrs {
		if in.Idx != i {
			t.Fatalf("Idx not maintained at %d", i)
		}
	}
	b.RemoveAt(0)
	if len(b.Instrs) != 2 || b.Instrs[0].Dst != v2 {
		t.Fatalf("remove failed")
	}
	for i, in := range b.Instrs {
		if in.Idx != i {
			t.Fatalf("Idx not maintained after remove at %d", i)
		}
	}
}

func TestInstrString(t *testing.T) {
	fn := ir.NewFunc("p", ir.Void)
	b := fn.NewBlock()
	fn.Entry = b
	v1 := fn.NewVReg(ir.I64)
	v2 := fn.NewVReg(ir.I64)
	in1 := b.Append(&ir.Instr{Op: ir.OpConst, Dst: v1, Imm: 42})
	in2 := b.Append(&ir.Instr{Op: ir.OpAdd, Dst: v2, Args: []ir.VReg{v1}, Imm: 7, ImmArg: true})
	in3 := b.Append(&ir.Instr{Op: ir.OpLoad, Dst: v2, Args: []ir.VReg{v1}, Imm: 16})
	if got := in1.String(); !strings.Contains(got, "const 42") {
		t.Errorf("const: %q", got)
	}
	if got := in2.String(); !strings.Contains(got, "#7") {
		t.Errorf("imm add: %q", got)
	}
	if got := in3.String(); !strings.Contains(got, "+16") {
		t.Errorf("load offset: %q", got)
	}
}

func TestModuleLookup(t *testing.T) {
	mod := ir.NewModule()
	fn := ir.NewFunc("f", ir.Void)
	mod.AddFunc(fn)
	mod.Globals = append(mod.Globals, &ir.Global{Name: "g", Words: 4})
	if mod.Lookup("f") != fn || mod.Lookup("missing") != nil {
		t.Error("function lookup wrong")
	}
	if mod.Global("g") == nil || mod.Global("missing") != nil {
		t.Error("global lookup wrong")
	}
}
