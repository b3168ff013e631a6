package isa_test

import (
	"strings"
	"testing"

	"fpint/internal/isa"
)

// TestExtensionOpcodeCount pins the architectural claim: exactly 22 new
// opcodes, as in the paper.
func TestExtensionOpcodeCount(t *testing.T) {
	ext := []isa.Opcode{
		isa.LIA, isa.MOVA, isa.ADDA, isa.SUBA, isa.ANDA, isa.ORA, isa.XORA,
		isa.NORA, isa.SLLA, isa.SRAA, isa.SRLA, isa.SEQA, isa.SNEA, isa.SLTA,
		isa.SLEA, isa.SGTA, isa.SGEA, isa.BNEZA, isa.CP2FP, isa.CP2INT,
		isa.LWFA, isa.SWFA,
	}
	if len(ext) != isa.NumFPaExtensionOpcodes || isa.NumFPaExtensionOpcodes != 22 {
		t.Fatalf("extension opcode count = %d, want 22", len(ext))
	}
	seen := make(map[isa.Opcode]bool)
	for _, op := range ext {
		if seen[op] {
			t.Fatalf("duplicate opcode %v", op)
		}
		seen[op] = true
	}
}

// TestNoIntegerMulDivInFPa pins the hardware-cost decision: integer
// multiply and divide are not supported in the FP subsystem.
func TestNoIntegerMulDivInFPa(t *testing.T) {
	for _, op := range []isa.Opcode{isa.MUL, isa.DIV, isa.REM} {
		if isa.ExecSubsystem(op) != isa.SubINT {
			t.Errorf("%v should execute in INT only", op)
		}
	}
}

func TestExecSubsystemClassification(t *testing.T) {
	cases := map[isa.Opcode]isa.Subsystem{
		isa.ADD:    isa.SubINT,
		isa.LW:     isa.SubINT,
		isa.SW:     isa.SubINT,
		isa.BNEZ:   isa.SubINT,
		isa.JAL:    isa.SubINT,
		isa.CP2FP:  isa.SubINT, // reads an integer register
		isa.LWFA:   isa.SubINT, // executes in the INT load/store unit
		isa.SWFA:   isa.SubINT,
		isa.LD:     isa.SubINT,
		isa.SD:     isa.SubINT,
		isa.FADD:   isa.SubFP,
		isa.FSLT:   isa.SubFP,
		isa.CVTIF:  isa.SubFP,
		isa.ADDA:   isa.SubFPa,
		isa.BNEZA:  isa.SubFPa,
		isa.CP2INT: isa.SubFPa, // reads an FP register
		isa.SEQA:   isa.SubFPa,
		isa.LIA:    isa.SubFPa,
	}
	for op, want := range cases {
		if got := isa.ExecSubsystem(op); got != want {
			t.Errorf("ExecSubsystem(%v) = %v, want %v", op, got, want)
		}
	}
}

// TestFPaSingleCycle pins the §6.6 assumption: integer ops in FPa are
// single-cycle, like their INT counterparts.
func TestFPaSingleCycle(t *testing.T) {
	for _, op := range []isa.Opcode{isa.ADDA, isa.SUBA, isa.ANDA, isa.SLLA, isa.SEQA, isa.BNEZA, isa.MOVA} {
		if isa.Latency(op) != 1 {
			t.Errorf("Latency(%v) = %d, want 1", op, isa.Latency(op))
		}
	}
	if isa.Latency(isa.MUL) != 6 || isa.Latency(isa.DIV) != 12 {
		t.Errorf("mul/div latency wrong (Table 1: 6c mul, 12c div)")
	}
}

func TestMemClassifiers(t *testing.T) {
	for _, op := range []isa.Opcode{isa.LW, isa.LD, isa.LWFA} {
		if !isa.IsLoad(op) || isa.IsStore(op) || !isa.IsMem(op) {
			t.Errorf("%v misclassified", op)
		}
	}
	for _, op := range []isa.Opcode{isa.SW, isa.SD, isa.SWFA} {
		if isa.IsLoad(op) || !isa.IsStore(op) || !isa.IsMem(op) {
			t.Errorf("%v misclassified", op)
		}
	}
	if isa.IsMem(isa.ADD) || isa.IsMem(isa.CP2FP) {
		t.Error("non-memory op classified as memory")
	}
}

func TestControlClassifiers(t *testing.T) {
	for _, op := range []isa.Opcode{isa.BNEZ, isa.BEQZ, isa.BNEZA} {
		if !isa.IsCondBranch(op) || !isa.IsControl(op) {
			t.Errorf("%v not a conditional branch", op)
		}
	}
	for _, op := range []isa.Opcode{isa.J, isa.JAL, isa.JR} {
		if !isa.IsJump(op) || isa.IsCondBranch(op) {
			t.Errorf("%v misclassified", op)
		}
	}
}

// TestDisassembly pins one row per opcode: the register form, the
// immediate form where the opcode has one, and the symbolic forms of LI,
// LIA, J and JAL. Every instruction carries the same field values, so
// each row shows which fields its opcode prints and in which file.
func TestDisassembly(t *testing.T) {
	cases := []struct {
		op     isa.Opcode
		useImm bool
		sym    string
		want   string
	}{
		{isa.NOP, false, "", "nop"},
		{isa.LI, false, "", "li $1, -4"},
		{isa.LI, false, "g", "li $1, g(=-4)"},
		{isa.MOV, false, "", "mov $1, $2"},
		{isa.ADD, false, "", "add $1, $2, $3"},
		{isa.ADD, true, "", "add $1, $2, -4"},
		{isa.SUB, false, "", "sub $1, $2, $3"},
		{isa.SUB, true, "", "sub $1, $2, -4"},
		{isa.MUL, false, "", "mul $1, $2, $3"},
		{isa.MUL, true, "", "mul $1, $2, -4"},
		{isa.DIV, false, "", "div $1, $2, $3"},
		{isa.DIV, true, "", "div $1, $2, -4"},
		{isa.REM, false, "", "rem $1, $2, $3"},
		{isa.REM, true, "", "rem $1, $2, -4"},
		{isa.AND, false, "", "and $1, $2, $3"},
		{isa.AND, true, "", "and $1, $2, -4"},
		{isa.OR, false, "", "or $1, $2, $3"},
		{isa.OR, true, "", "or $1, $2, -4"},
		{isa.XOR, false, "", "xor $1, $2, $3"},
		{isa.XOR, true, "", "xor $1, $2, -4"},
		{isa.NOR, false, "", "nor $1, $2, $3"},
		{isa.NOR, true, "", "nor $1, $2, -4"},
		{isa.SLL, false, "", "sll $1, $2, $3"},
		{isa.SLL, true, "", "sll $1, $2, -4"},
		{isa.SRA, false, "", "sra $1, $2, $3"},
		{isa.SRA, true, "", "sra $1, $2, -4"},
		{isa.SRL, false, "", "srl $1, $2, $3"},
		{isa.SRL, true, "", "srl $1, $2, -4"},
		{isa.SEQ, false, "", "seq $1, $2, $3"},
		{isa.SEQ, true, "", "seq $1, $2, -4"},
		{isa.SNE, false, "", "sne $1, $2, $3"},
		{isa.SNE, true, "", "sne $1, $2, -4"},
		{isa.SLT, false, "", "slt $1, $2, $3"},
		{isa.SLT, true, "", "slt $1, $2, -4"},
		{isa.SLE, false, "", "sle $1, $2, $3"},
		{isa.SLE, true, "", "sle $1, $2, -4"},
		{isa.SGT, false, "", "sgt $1, $2, $3"},
		{isa.SGT, true, "", "sgt $1, $2, -4"},
		{isa.SGE, false, "", "sge $1, $2, $3"},
		{isa.SGE, true, "", "sge $1, $2, -4"},
		{isa.LW, false, "", "lw $1, -4($2)"},
		{isa.SW, false, "", "sw $2, -4($3)"},
		{isa.BNEZ, false, "", "bnez $2, @7"},
		{isa.BEQZ, false, "", "beqz $2, @7"},
		{isa.J, false, "", "j @7"},
		{isa.J, false, "g", "j g(@7)"},
		{isa.JAL, false, "", "jal @7"},
		{isa.JAL, false, "g", "jal g(@7)"},
		{isa.JR, false, "", "jr $2"},
		{isa.HALT, false, "", "halt"},
		{isa.PRNI, false, "", "prni $2"},
		{isa.LID, false, "", "li.d $f1, 0.5"},
		{isa.FMOV, false, "", "mov.d $f1, $f2"},
		{isa.FADD, false, "", "add.d $f1, $f2, $f3"},
		{isa.FSUB, false, "", "sub.d $f1, $f2, $f3"},
		{isa.FMUL, false, "", "mul.d $f1, $f2, $f3"},
		{isa.FDIV, false, "", "div.d $f1, $f2, $f3"},
		{isa.FNEG, false, "", "neg.d $f1, $f2"},
		{isa.FSEQ, false, "", "c.eq.d $1, $f2, $f3"},
		{isa.FSNE, false, "", "c.ne.d $1, $f2, $f3"},
		{isa.FSLT, false, "", "c.lt.d $1, $f2, $f3"},
		{isa.FSLE, false, "", "c.le.d $1, $f2, $f3"},
		{isa.FSGT, false, "", "c.gt.d $1, $f2, $f3"},
		{isa.FSGE, false, "", "c.ge.d $1, $f2, $f3"},
		{isa.CVTIF, false, "", "cvt.d.l $f1, $2"},
		{isa.CVTFI, false, "", "cvt.l.d $1, $f2"},
		{isa.LD, false, "", "l.d $f1, -4($2)"},
		{isa.SD, false, "", "s.d $f2, -4($3)"},
		{isa.PRNF, false, "", "prnf $f2"},
		{isa.LIA, false, "", "li,a $f1, -4"},
		{isa.LIA, false, "g", "li,a $f1, g(=-4)"},
		{isa.MOVA, false, "", "mov,a $f1, $f2"},
		{isa.ADDA, false, "", "add,a $f1, $f2, $f3"},
		{isa.ADDA, true, "", "add,a $f1, $f2, -4"},
		{isa.SUBA, false, "", "sub,a $f1, $f2, $f3"},
		{isa.SUBA, true, "", "sub,a $f1, $f2, -4"},
		{isa.ANDA, false, "", "and,a $f1, $f2, $f3"},
		{isa.ANDA, true, "", "and,a $f1, $f2, -4"},
		{isa.ORA, false, "", "or,a $f1, $f2, $f3"},
		{isa.ORA, true, "", "or,a $f1, $f2, -4"},
		{isa.XORA, false, "", "xor,a $f1, $f2, $f3"},
		{isa.XORA, true, "", "xor,a $f1, $f2, -4"},
		{isa.NORA, false, "", "nor,a $f1, $f2, $f3"},
		{isa.NORA, true, "", "nor,a $f1, $f2, -4"},
		{isa.SLLA, false, "", "sll,a $f1, $f2, $f3"},
		{isa.SLLA, true, "", "sll,a $f1, $f2, -4"},
		{isa.SRAA, false, "", "sra,a $f1, $f2, $f3"},
		{isa.SRAA, true, "", "sra,a $f1, $f2, -4"},
		{isa.SRLA, false, "", "srl,a $f1, $f2, $f3"},
		{isa.SRLA, true, "", "srl,a $f1, $f2, -4"},
		{isa.SEQA, false, "", "seq,a $f1, $f2, $f3"},
		{isa.SEQA, true, "", "seq,a $f1, $f2, -4"},
		{isa.SNEA, false, "", "sne,a $f1, $f2, $f3"},
		{isa.SNEA, true, "", "sne,a $f1, $f2, -4"},
		{isa.SLTA, false, "", "slt,a $f1, $f2, $f3"},
		{isa.SLTA, true, "", "slt,a $f1, $f2, -4"},
		{isa.SLEA, false, "", "sle,a $f1, $f2, $f3"},
		{isa.SLEA, true, "", "sle,a $f1, $f2, -4"},
		{isa.SGTA, false, "", "sgt,a $f1, $f2, $f3"},
		{isa.SGTA, true, "", "sgt,a $f1, $f2, -4"},
		{isa.SGEA, false, "", "sge,a $f1, $f2, $f3"},
		{isa.SGEA, true, "", "sge,a $f1, $f2, -4"},
		{isa.BNEZA, false, "", "bnez,a $f2, @7"},
		{isa.CP2FP, false, "", "cp2fp $f1, $2"},
		{isa.CP2INT, false, "", "cp2int $1, $f2"},
		{isa.LWFA, false, "", "lw,a $f1, -4($2)"},
		{isa.SWFA, false, "", "sw,a $f2, -4($3)"},
	}
	for _, c := range cases {
		in := isa.Inst{Op: c.op, Rd: 1, Rs: 2, Rt: 3, Imm: -4, FImm: 0.5, Target: 7, UseImm: c.useImm, Sym: c.sym}
		if got := in.String(); got != c.want {
			t.Errorf("%v useImm=%v sym=%q: disasm = %q, want %q", c.op, c.useImm, c.sym, got, c.want)
		}
	}
}

func TestAllOpcodesHaveNames(t *testing.T) {
	// Every opcode through SWFA must disassemble to something other than
	// the fallback.
	for op := isa.NOP; op <= isa.SWFA; op++ {
		if strings.HasPrefix(op.String(), "op") {
			t.Errorf("opcode %d has no name", op)
		}
	}
}
