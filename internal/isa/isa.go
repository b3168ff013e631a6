// Package isa defines the MIPS-like target instruction set, including the
// 22 extension opcodes that let integer operations execute in the augmented
// floating-point subsystem (FPa), mirroring the paper's extended
// SimpleScalar instruction set ("We used 22 extra opcodes for our study";
// integer multiply and divide are deliberately not supported in FPa).
//
// Conventions:
//   - 32 integer registers; R0 is hardwired zero, R2 holds integer return
//     values, R4–R7 carry integer arguments, R29 is the stack pointer, R31
//     the return address. R1, R26, R27 are reserved assembler/spill
//     scratch.
//   - 32 floating-point registers; F0 holds float return values, F12–F15
//     carry float arguments, F30/F31 are reserved spill scratch.
//   - All scalars are 8-byte words; loads/stores use base+offset
//     addressing.
//   - ALU operations are three-register or register+immediate (Inst.UseImm,
//     the addi/andi/slti forms); remaining constants are materialized with
//     LI/LIA/LID.
package isa

import "fmt"

// Opcode enumerates machine operations.
type Opcode uint8

// Integer-subsystem opcodes.
const (
	NOP Opcode = iota
	LI         // Rd = Imm (or address of Sym)
	MOV        // Rd = Rs
	ADD
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	NOR
	SLL
	SRA
	SRL
	SEQ // Rd = (Rs == Rt)
	SNE
	SLT
	SLE
	SGT
	SGE
	LW   // Rd = mem[Rs+Imm]
	SW   // mem[Rt+Imm] = Rs
	BNEZ // if Rs != 0 goto Target
	BEQZ
	J
	JAL
	JR   // jump through Rs (function return)
	HALT // stop the machine (end of start stub)
	PRNI // print integer in Rs (host trap, used by the `print` builtin)

	// Floating-point subsystem opcodes (conventional).
	LID  // Fd = FImm
	FMOV // Fd = Fs
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FSEQ // Rd = (Fs == Ft)  (condition delivered to both subsystems)
	FSNE
	FSLT
	FSLE
	FSGT
	FSGE
	CVTIF // Fd = float(Rs)
	CVTFI // Rd = int(Fs)
	LD    // Fd = mem[Rs+Imm] (float load; executes in the INT ld/st unit)
	SD    // mem[Rt+Imm] = Fs
	PRNF  // print float in Fs (host trap, used by the `printf_` builtin)

	// The 22 FPa extension opcodes. ALU forms operate on integer values
	// held in floating-point registers and execute on the augmented FP
	// functional units; LWFA/SWFA execute in the INT load/store unit but
	// deliver/fetch the value to/from the FP register file; CP2FP/CP2INT
	// move values between the register files.
	LIA    // Fd = Imm (integer constant into FP register)         (1)
	MOVA   // Fd = Fs (integer move in FP file)                    (2)
	ADDA   //                                                      (3)
	SUBA   //                                                      (4)
	ANDA   //                                                      (5)
	ORA    //                                                      (6)
	XORA   //                                                      (7)
	NORA   //                                                      (8)
	SLLA   //                                                      (9)
	SRAA   //                                                     (10)
	SRLA   //                                                     (11)
	SEQA   //                                                     (12)
	SNEA   //                                                     (13)
	SLTA   //                                                     (14)
	SLEA   //                                                     (15)
	SGTA   //                                                     (16)
	SGEA   //                                                     (17)
	BNEZA  // branch on integer value in FP register             (18)
	CP2FP  // Fd = Rs (INT→FPa copy)                             (19)
	CP2INT // Rd = Fs (FPa→INT copy)                            (20)
	LWFA   // Fd = mem[Rs+Imm] (integer load into FP register)   (21)
	SWFA   // mem[Rt+Imm] = Fs (store integer from FP register)  (22)

	// NumOpcodes is one past the last opcode.
	NumOpcodes
)

var opNames = [...]string{
	NOP: "nop", LI: "li", MOV: "mov",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", REM: "rem",
	AND: "and", OR: "or", XOR: "xor", NOR: "nor",
	SLL: "sll", SRA: "sra", SRL: "srl",
	SEQ: "seq", SNE: "sne", SLT: "slt", SLE: "sle", SGT: "sgt", SGE: "sge",
	LW: "lw", SW: "sw", BNEZ: "bnez", BEQZ: "beqz",
	J: "j", JAL: "jal", JR: "jr", HALT: "halt", PRNI: "prni",
	LID: "li.d", FMOV: "mov.d",
	FADD: "add.d", FSUB: "sub.d", FMUL: "mul.d", FDIV: "div.d", FNEG: "neg.d",
	FSEQ: "c.eq.d", FSNE: "c.ne.d", FSLT: "c.lt.d", FSLE: "c.le.d",
	FSGT: "c.gt.d", FSGE: "c.ge.d",
	CVTIF: "cvt.d.l", CVTFI: "cvt.l.d", LD: "l.d", SD: "s.d", PRNF: "prnf",
	LIA: "li,a", MOVA: "mov,a",
	ADDA: "add,a", SUBA: "sub,a", ANDA: "and,a", ORA: "or,a",
	XORA: "xor,a", NORA: "nor,a",
	SLLA: "sll,a", SRAA: "sra,a", SRLA: "srl,a",
	SEQA: "seq,a", SNEA: "sne,a", SLTA: "slt,a", SLEA: "sle,a",
	SGTA: "sgt,a", SGEA: "sge,a",
	BNEZA: "bnez,a", CP2FP: "cp2fp", CP2INT: "cp2int",
	LWFA: "lw,a", SWFA: "sw,a",
}

// String returns the assembly mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// NumFPaExtensionOpcodes is the number of new opcodes the architecture adds,
// matching the paper's 22.
const NumFPaExtensionOpcodes = 22

// Subsystem identifies which hardware subsystem executes an instruction.
type Subsystem uint8

// Subsystems for timing and accounting.
const (
	SubINT Subsystem = iota // integer ALUs, load/store unit, int branches
	SubFP                   // conventional floating-point units
	SubFPa                  // integer ops on the augmented FP units
)

// String names the subsystem.
func (s Subsystem) String() string {
	switch s {
	case SubFP:
		return "FP"
	case SubFPa:
		return "FPa"
	}
	return "INT"
}

// ExecSubsystem returns where the opcode executes. Loads and stores —
// including LWFA/SWFA/L.D/S.D — execute in the INT subsystem's load/store
// unit (only the destination/source register file differs), exactly as in
// the paper's Figure 1 machine. CP2FP reads an integer register and issues
// from the integer side; CP2INT reads an FP register and issues from the FP
// side.
func ExecSubsystem(op Opcode) Subsystem {
	switch op {
	case LID, FMOV, FADD, FSUB, FMUL, FDIV, FNEG,
		FSEQ, FSNE, FSLT, FSLE, FSGT, FSGE, CVTIF, CVTFI, PRNF:
		return SubFP
	case LIA, MOVA, ADDA, SUBA, ANDA, ORA, XORA, NORA,
		SLLA, SRAA, SRLA, SEQA, SNEA, SLTA, SLEA, SGTA, SGEA,
		BNEZA, CP2INT:
		return SubFPa
	}
	return SubINT
}

// IsLoad reports whether op reads memory.
func IsLoad(op Opcode) bool { return op == LW || op == LD || op == LWFA }

// IsStore reports whether op writes memory.
func IsStore(op Opcode) bool { return op == SW || op == SD || op == SWFA }

// IsMem reports whether op accesses memory.
func IsMem(op Opcode) bool { return IsLoad(op) || IsStore(op) }

// IsCondBranch reports whether op is a conditional branch.
func IsCondBranch(op Opcode) bool { return op == BNEZ || op == BEQZ || op == BNEZA }

// IsJump reports whether op unconditionally redirects fetch.
func IsJump(op Opcode) bool { return op == J || op == JAL || op == JR }

// IsControl reports whether op is any control transfer.
func IsControl(op Opcode) bool { return IsCondBranch(op) || IsJump(op) }

// Latency returns the execution latency in cycles, per Table 1 ("6 cycle
// mul, 12 cycle div, 1 cycle" otherwise for integer ops). Conventional FP
// arithmetic uses typical multi-cycle latencies; the FPa integer ops are
// single-cycle by the paper's key hardware assumption (§6.6). Loads take 1
// cycle plus cache access time (charged by the memory model).
func Latency(op Opcode) int {
	switch op {
	case MUL:
		return 6
	case DIV, REM:
		return 12
	case FADD, FSUB, FNEG, FSEQ, FSNE, FSLT, FSLE, FSGT, FSGE, CVTIF, CVTFI:
		return 2
	case FMUL:
		return 6
	case FDIV:
		return 12
	}
	return 1
}

// RegClass identifies a register file.
type RegClass uint8

// Register classes.
const (
	IntReg RegClass = iota
	FpReg
)

// NoReg marks an absent operand in Operands' results.
const NoReg = int16(-1)

// EncodeReg packs a register reference into one number space shared by
// both files: class·32+num, so integer registers are 0–31 and FP registers
// 32–63.
func EncodeReg(class RegClass, n uint8) int16 {
	return int16(class)*32 + int16(n)
}

// Operands decodes the registers an instruction writes (dst) and reads
// (src1, src2), encoded with EncodeReg; NoReg marks an absent one. Sources
// fill src1 first. A store reads its value register (Rs) as src1 and its
// base (Rt) as src2; the immediate ALU forms have no src2; JAL writes RA;
// a write to R0 still names register 0. HALT, NOP and J name no register.
func Operands(in *Inst) (dst, src1, src2 int16) {
	i := func(n uint8) int16 { return EncodeReg(IntReg, n) }
	f := func(n uint8) int16 { return EncodeReg(FpReg, n) }
	rt := func(reg func(uint8) int16) int16 {
		if in.UseImm {
			return NoReg
		}
		return reg(in.Rt)
	}
	switch in.Op {
	case LI:
		return i(in.Rd), NoReg, NoReg
	case MOV, LW:
		return i(in.Rd), i(in.Rs), NoReg
	case ADD, SUB, MUL, DIV, REM, AND, OR, XOR, NOR, SLL, SRA, SRL,
		SEQ, SNE, SLT, SLE, SGT, SGE:
		return i(in.Rd), i(in.Rs), rt(i)
	case SW:
		return NoReg, i(in.Rs), i(in.Rt)
	case BNEZ, BEQZ, JR, PRNI:
		return NoReg, i(in.Rs), NoReg
	case JAL:
		return i(RegRA), NoReg, NoReg
	case LID, LIA:
		return f(in.Rd), NoReg, NoReg
	case FMOV, FNEG, MOVA:
		return f(in.Rd), f(in.Rs), NoReg
	case FADD, FSUB, FMUL, FDIV:
		return f(in.Rd), f(in.Rs), f(in.Rt)
	case FSEQ, FSNE, FSLT, FSLE, FSGT, FSGE:
		return i(in.Rd), f(in.Rs), f(in.Rt)
	case CVTIF, LD, CP2FP, LWFA:
		return f(in.Rd), i(in.Rs), NoReg
	case CVTFI, CP2INT:
		return i(in.Rd), f(in.Rs), NoReg
	case SD, SWFA:
		return NoReg, f(in.Rs), i(in.Rt)
	case PRNF, BNEZA:
		return NoReg, f(in.Rs), NoReg
	case ADDA, SUBA, ANDA, ORA, XORA, NORA, SLLA, SRAA, SRLA,
		SEQA, SNEA, SLTA, SLEA, SGTA, SGEA:
		return f(in.Rd), f(in.Rs), rt(f)
	}
	return NoReg, NoReg, NoReg
}

// Distinguished integer registers.
const (
	RegZero = 0  // hardwired zero
	RegAT   = 1  // assembler scratch (spill reloads)
	RegV0   = 2  // integer return value
	RegA0   = 4  // first integer argument (A0..A3 = 4..7)
	RegK0   = 26 // spill scratch
	RegK1   = 27 // spill scratch
	RegSP   = 29 // stack pointer
	RegRA   = 31 // return address
)

// Distinguished FP registers.
const (
	FRegV0 = 0  // float return value
	FRegA0 = 12 // first float argument (F12..F15)
	FRegS0 = 30 // spill scratch
	FRegS1 = 31 // spill scratch
)

// Inst is one machine instruction. Register fields are indices into the
// register file implied by the opcode (see package comment); Target is a
// resolved instruction index for control transfers; Sym carries a symbol
// for LI/LIA address materialization and call targets until linking.
type Inst struct {
	Op     Opcode
	Rd     uint8
	Rs     uint8
	Rt     uint8
	Imm    int64
	FImm   float64
	Target int
	Sym    string

	// IsDup marks instructions the advanced scheme duplicated into FPa,
	// for dynamic overhead accounting (§7.2).
	IsDup bool

	// UseImm marks ALU instructions whose second operand is Imm instead of
	// Rt (the addi/andi/slti immediate forms and their FPa ",a" variants).
	UseImm bool

	// SrcLine is the 1-based source line this instruction was compiled
	// from (0 when unknown, e.g. the start stub or synthesized glue). The
	// debug line table threads this from the frontend through optimization
	// and instruction selection so profilers can attribute cycles to
	// source lines.
	SrcLine int32

	// IROp records the numeric value of the ir.Op this instruction was
	// selected from, as raw provenance (this package cannot import ir).
	// 0 means unknown/synthesized. Report layers that want the mnemonic
	// convert via ir.Op(inst.IROp).String().
	IROp uint8
}

// String disassembles the instruction.
func (in Inst) String() string {
	r := func(n uint8) string { return fmt.Sprintf("$%d", n) }
	f := func(n uint8) string { return fmt.Sprintf("$f%d", n) }
	switch in.Op {
	case NOP, HALT:
		return in.Op.String()
	case LI:
		if in.Sym != "" {
			return fmt.Sprintf("li %s, %s(=%d)", r(in.Rd), in.Sym, in.Imm)
		}
		return fmt.Sprintf("li %s, %d", r(in.Rd), in.Imm)
	case LIA:
		if in.Sym != "" {
			return fmt.Sprintf("li,a %s, %s(=%d)", f(in.Rd), in.Sym, in.Imm)
		}
		return fmt.Sprintf("li,a %s, %d", f(in.Rd), in.Imm)
	case LID:
		return fmt.Sprintf("li.d %s, %g", f(in.Rd), in.FImm)
	case MOV:
		return fmt.Sprintf("mov %s, %s", r(in.Rd), r(in.Rs))
	case FMOV, MOVA:
		return fmt.Sprintf("%s %s, %s", in.Op, f(in.Rd), f(in.Rs))
	case LW:
		return fmt.Sprintf("lw %s, %d(%s)", r(in.Rd), in.Imm, r(in.Rs))
	case LD:
		return fmt.Sprintf("l.d %s, %d(%s)", f(in.Rd), in.Imm, r(in.Rs))
	case LWFA:
		return fmt.Sprintf("lw,a %s, %d(%s)", f(in.Rd), in.Imm, r(in.Rs))
	case SW:
		return fmt.Sprintf("sw %s, %d(%s)", r(in.Rs), in.Imm, r(in.Rt))
	case SD:
		return fmt.Sprintf("s.d %s, %d(%s)", f(in.Rs), in.Imm, r(in.Rt))
	case SWFA:
		return fmt.Sprintf("sw,a %s, %d(%s)", f(in.Rs), in.Imm, r(in.Rt))
	case BNEZ, BEQZ:
		return fmt.Sprintf("%s %s, @%d", in.Op, r(in.Rs), in.Target)
	case BNEZA:
		return fmt.Sprintf("bnez,a %s, @%d", f(in.Rs), in.Target)
	case J, JAL:
		if in.Sym != "" {
			return fmt.Sprintf("%s %s(@%d)", in.Op, in.Sym, in.Target)
		}
		return fmt.Sprintf("%s @%d", in.Op, in.Target)
	case JR:
		return fmt.Sprintf("jr %s", r(in.Rs))
	case PRNI:
		return fmt.Sprintf("prni %s", r(in.Rs))
	case PRNF:
		return fmt.Sprintf("prnf %s", f(in.Rs))
	case CP2FP:
		return fmt.Sprintf("cp2fp %s, %s", f(in.Rd), r(in.Rs))
	case CP2INT:
		return fmt.Sprintf("cp2int %s, %s", r(in.Rd), f(in.Rs))
	case CVTIF:
		return fmt.Sprintf("cvt.d.l %s, %s", f(in.Rd), r(in.Rs))
	case CVTFI:
		return fmt.Sprintf("cvt.l.d %s, %s", r(in.Rd), f(in.Rs))
	case FSEQ, FSNE, FSLT, FSLE, FSGT, FSGE:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, r(in.Rd), f(in.Rs), f(in.Rt))
	case FADD, FSUB, FMUL, FDIV:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, f(in.Rd), f(in.Rs), f(in.Rt))
	case FNEG:
		return fmt.Sprintf("neg.d %s, %s", f(in.Rd), f(in.Rs))
	}
	if ExecSubsystem(in.Op) == SubFPa {
		if in.UseImm {
			return fmt.Sprintf("%s %s, %s, %d", in.Op, f(in.Rd), f(in.Rs), in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, f(in.Rd), f(in.Rs), f(in.Rt))
	}
	if in.UseImm {
		return fmt.Sprintf("%s %s, %s, %d", in.Op, r(in.Rd), r(in.Rs), in.Imm)
	}
	return fmt.Sprintf("%s %s, %s, %s", in.Op, r(in.Rd), r(in.Rs), r(in.Rt))
}

// Program is an assembled executable: a flat instruction array plus the
// data-segment layout.
type Program struct {
	Insts []Inst

	// FuncEntry maps function names to their entry instruction index.
	FuncEntry map[string]int
	// FuncOf maps an instruction index to the containing function name
	// (used for per-function statistics).
	FuncOf []string

	// GlobalAddr maps global names to data-segment byte addresses.
	GlobalAddr map[string]int64
	// DataWords holds initial data-segment contents (address → raw word).
	DataWords map[int64]uint64
	// DataTop is the first byte past the data segment.
	DataTop int64
}

// Disassemble renders the program listing.
func (p *Program) Disassemble() string {
	s := ""
	entryNames := make(map[int]string)
	for name, idx := range p.FuncEntry {
		entryNames[idx] = name
	}
	for i, in := range p.Insts {
		if name, ok := entryNames[i]; ok {
			s += fmt.Sprintf("%s:\n", name)
		}
		s += fmt.Sprintf("  %4d: %s\n", i, in.String())
	}
	return s
}
