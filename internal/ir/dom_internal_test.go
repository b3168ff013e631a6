package ir

import "testing"

// TestDominators checks the immediate-dominator solver behind NaturalLoops
// on entry → header ⇄ body, header → exit, plus a block nothing reaches.
func TestDominators(t *testing.T) {
	fn := NewFunc("loop", I64)
	entry, header, body, exit, dead := fn.NewBlock(), fn.NewBlock(), fn.NewBlock(), fn.NewBlock(), fn.NewBlock()
	fn.Entry = entry
	c := fn.NewVReg(I64)
	entry.Append(&Instr{Op: OpConst, Dst: c, Imm: 1})
	entry.Append(&Instr{Op: OpJmp})
	entry.Succs = []*Block{header}
	header.Append(&Instr{Op: OpBr, Args: []VReg{c}})
	header.Succs = []*Block{body, exit}
	body.Append(&Instr{Op: OpJmp})
	body.Succs = []*Block{header}
	exit.Append(&Instr{Op: OpRet, Args: []VReg{c}})
	dead.Append(&Instr{Op: OpJmp})
	dead.Succs = []*Block{exit}
	fn.RecomputePreds()
	fn.Renumber()

	idom := fn.idoms()
	if idom[entry.ID] != entry {
		t.Errorf("idom(entry) = %v, want itself", idom[entry.ID])
	}
	if idom[header.ID] != entry {
		t.Errorf("idom(header) = %v, want entry", idom[header.ID])
	}
	if idom[body.ID] != header || idom[exit.ID] != header {
		t.Errorf("idom(body/exit) = %v/%v, want header", idom[body.ID], idom[exit.ID])
	}
	if idom[dead.ID] != nil {
		t.Errorf("idom(unreachable) = %v, want nil", idom[dead.ID])
	}
}
