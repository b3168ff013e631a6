// Package codegen lowers partitioned IR into the target ISA: instruction
// selection honoring the INT/FPa partition (including copy and duplicate
// insertion), per-register-file linear-scan register allocation with
// spilling (register allocation runs after partitioning, per §7.1), calling
// conventions, and final program assembly.
package codegen

import (
	"fmt"

	"fpint/internal/isa"
)

// noReg marks an unused register field.
const noReg = -1

// Machine registers: 0–31 are physical, 32+ are virtual (per class).
const firstVirtual = 32

// minst is a machine instruction before register allocation: register
// fields are ints so they can hold virtual register numbers.
type minst struct {
	op   isa.Opcode
	rd   int
	rs   int
	rt   int
	imm  int64
	fimm float64
	sym  string
	// target is the IR block ID this control transfer goes to
	// (epilogueBlockID for returns); -1 when not a local branch.
	target int
	// isDup marks FPa duplicates of INT instructions (§7.2 accounting).
	isDup bool
	// useImm marks immediate-form ALU instructions (rt unused, imm is the
	// second operand).
	useImm bool
	// line is the 1-based source line inherited from the IR instruction
	// this was selected from (0 = synthesized); irop is the numeric ir.Op.
	// Both flow into isa.Inst as debug provenance.
	line int
	irop uint8
}

// epilogueBlockID is the pseudo-target of return jumps.
const epilogueBlockID = -2

func (m minst) String() string {
	return fmt.Sprintf("%v rd=%d rs=%d rt=%d imm=%d sym=%q tgt=%d",
		m.op, m.rd, m.rs, m.rt, m.imm, m.sym, m.target)
}

// mblock is a machine basic block mirroring an IR block.
type mblock struct {
	id    int // IR block ID (or epilogueBlockID)
	insts []minst
	succs []int // successor block IDs (for liveness)
}

// mfunc is a function in machine IR.
type mfunc struct {
	line       int // source line of the function declaration (debug info)
	blocks     []*mblock
	nextVirt   [2]int  // next virtual register per class
	localWords int64   // frame words used by IR local slots
	slotOff    []int64 // byte offset of each IR local slot within the frame

	// Filled by register allocation.
	spillWords int64
}

func newMfunc() *mfunc {
	f := &mfunc{}
	f.nextVirt[isa.IntReg] = firstVirtual
	f.nextVirt[isa.FpReg] = firstVirtual
	return f
}

func (f *mfunc) newVirt(class isa.RegClass) int {
	n := f.nextVirt[class]
	f.nextVirt[class]++
	return n
}
