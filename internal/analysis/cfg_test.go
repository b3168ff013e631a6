package analysis_test

import (
	"testing"

	"fpint/internal/analysis"
	"fpint/internal/ir"
)

// TestCFGSingleBlock: a function of one block has that block as its whole
// reverse postorder and no unreachable blocks.
func TestCFGSingleBlock(t *testing.T) {
	fn := ir.NewFunc("one", ir.I64)
	v := fn.NewVReg(ir.I64)
	b := fn.NewBlock()
	fn.Entry = b
	b.Append(&ir.Instr{Op: ir.OpConst, Dst: v, Imm: 1})
	b.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{v}})
	fn.RecomputePreds()
	fn.Renumber()

	cfg := analysis.BuildCFG(fn)
	if len(cfg.Blocks) != 1 || cfg.Blocks[0] != b {
		t.Fatalf("blocks = %v", cfg.Blocks)
	}
	if len(cfg.Unreachable) != 0 {
		t.Fatalf("unreachable = %v", cfg.Unreachable)
	}
}

// TestCFGUnreachableBlocks: a block with no path from the entry lands in
// Unreachable and not in Blocks.
func TestCFGUnreachableBlocks(t *testing.T) {
	fn := ir.NewFunc("dead", ir.I64)
	v := fn.NewVReg(ir.I64)
	b0 := fn.NewBlock()
	b1 := fn.NewBlock()
	dead := fn.NewBlock()
	fn.Entry = b0

	b0.Append(&ir.Instr{Op: ir.OpConst, Dst: v, Imm: 1})
	b0.Append(&ir.Instr{Op: ir.OpJmp})
	b0.Succs = []*ir.Block{b1}
	b1.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{v}})
	// dead jumps into the live region but nothing jumps to dead.
	dead.Append(&ir.Instr{Op: ir.OpJmp})
	dead.Succs = []*ir.Block{b1}
	fn.RecomputePreds()
	fn.Renumber()

	cfg := analysis.BuildCFG(fn)
	if len(cfg.Unreachable) != 1 || cfg.Unreachable[0] != dead {
		t.Fatalf("unreachable = %v", cfg.Unreachable)
	}
	if len(cfg.Blocks) != 2 || cfg.Blocks[0] != b0 || cfg.Blocks[1] != b1 {
		t.Errorf("blocks = %v, want [b0 b1]", cfg.Blocks)
	}
}

// TestCFGSelfLoop: a block that branches to itself is visited once, in
// reverse postorder between the entry and the exit.
func TestCFGSelfLoop(t *testing.T) {
	fn := ir.NewFunc("selfloop", ir.I64)
	v := fn.NewVReg(ir.I64)
	b0 := fn.NewBlock()
	loop := fn.NewBlock()
	exit := fn.NewBlock()
	fn.Entry = b0

	b0.Append(&ir.Instr{Op: ir.OpConst, Dst: v, Imm: 1})
	b0.Append(&ir.Instr{Op: ir.OpJmp})
	b0.Succs = []*ir.Block{loop}
	loop.Append(&ir.Instr{Op: ir.OpBr, Args: []ir.VReg{v}})
	loop.Succs = []*ir.Block{loop, exit}
	exit.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.VReg{v}})
	fn.RecomputePreds()
	fn.Renumber()

	cfg := analysis.BuildCFG(fn)
	if len(cfg.Blocks) != 3 || len(cfg.Unreachable) != 0 {
		t.Fatalf("blocks %d, unreachable %d", len(cfg.Blocks), len(cfg.Unreachable))
	}
	if cfg.Blocks[0] != b0 || cfg.Blocks[1] != loop || cfg.Blocks[2] != exit {
		t.Errorf("blocks = %v, want [b0 loop exit]", cfg.Blocks)
	}
}
