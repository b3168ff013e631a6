// Package ir defines the three-address intermediate representation the
// compiler pipeline operates on: virtual registers, typed instructions,
// basic blocks, and the control-flow graph.
//
// The paper's partitioning algorithms run at this level ("code partitioning
// is performed on the intermediate representation of the program after all
// the initial machine-independent optimizations are complete"), before
// register allocation.
package ir

import "fmt"

// Type is the type of a virtual register value.
type Type uint8

// Value types.
const (
	Void Type = iota
	I64       // 64-bit integer
	F64       // 64-bit float
)

// String returns a short name for the type.
func (t Type) String() string {
	switch t {
	case I64:
		return "i64"
	case F64:
		return "f64"
	}
	return "void"
}

// VReg is a virtual register identifier. 0 is the invalid register.
type VReg int32

// String formats the register as %vN.
func (v VReg) String() string { return fmt.Sprintf("%%v%d", int32(v)) }

// Op enumerates IR operations.
type Op uint8

// IR operations.
const (
	OpNop Op = iota

	// OpConst materializes an integer (Imm) or float (FImm, type F64)
	// constant into Dst.
	OpConst
	// OpCopy copies Args[0] into Dst.
	OpCopy

	// Integer ALU. Dst and Args are I64.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpNor
	OpShl
	OpShrA // arithmetic shift right
	OpShrL // logical shift right

	// Integer comparisons producing 0/1 in an I64 Dst.
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE

	// Floating-point ALU. Dst and Args are F64.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg

	// Floating-point comparisons producing 0/1 in an I64 Dst.
	OpFCmpEQ
	OpFCmpNE
	OpFCmpLT
	OpFCmpLE
	OpFCmpGT
	OpFCmpGE

	// Conversions.
	OpCvtIF // I64 -> F64
	OpCvtFI // F64 -> I64 (truncating)

	// Memory. Addresses are I64 byte addresses; every scalar is 8 bytes.
	OpLoad       // Dst = mem[Args[0]+Imm]
	OpStore      // mem[Args[1]+Imm] = Args[0]
	OpAddrGlobal // Dst = address of global Sym (+Imm)
	OpAddrLocal  // Dst = address of stack slot Imm (a frame-local array)

	// OpCall calls Sym with Args; Dst receives the return value when the
	// callee returns one (Dst != 0).
	OpCall

	// Terminators.
	OpBr  // if Args[0] != 0 goto Block.Succs[0] else Block.Succs[1]
	OpJmp // goto Block.Succs[0]
	OpRet // return Args[0] if present
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpCopy: "copy",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNor: "nor",
	OpShl: "shl", OpShrA: "shra", OpShrL: "shrl",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne", OpCmpLT: "cmplt",
	OpCmpLE: "cmple", OpCmpGT: "cmpgt", OpCmpGE: "cmpge",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFNeg: "fneg",
	OpFCmpEQ: "fcmpeq", OpFCmpNE: "fcmpne", OpFCmpLT: "fcmplt",
	OpFCmpLE: "fcmple", OpFCmpGT: "fcmpgt", OpFCmpGE: "fcmpge",
	OpCvtIF: "cvtif", OpCvtFI: "cvtfi",
	OpLoad: "load", OpStore: "store",
	OpAddrGlobal: "addrg", OpAddrLocal: "addrl",
	OpCall: "call", OpBr: "br", OpJmp: "jmp", OpRet: "ret",
}

// String returns the mnemonic for the op.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpJmp || o == OpRet }

// EvalInt evaluates the integer ALU operation op (OpAdd through OpCmpGE)
// on a and b: shifts use the low six bits of b and comparisons give 0 or 1.
// It reports false for division or remainder by zero and for any other op.
// It is the one definition of the IR's integer semantics: the interpreter
// traps on false and the optimizer leaves the instruction unfolded.
func EvalInt(op Op, a, b int64) (int64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case OpRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpNor:
		return ^(a | b), true
	case OpShl:
		return a << uint(b&63), true
	case OpShrA:
		return a >> uint(b&63), true
	case OpShrL:
		return int64(uint64(a) >> uint(b&63)), true
	case OpCmpEQ:
		return b2i(a == b), true
	case OpCmpNE:
		return b2i(a != b), true
	case OpCmpLT:
		return b2i(a < b), true
	case OpCmpLE:
		return b2i(a <= b), true
	case OpCmpGT:
		return b2i(a > b), true
	case OpCmpGE:
		return b2i(a >= b), true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Instr is a single IR instruction.
type Instr struct {
	Op   Op
	Dst  VReg   // 0 when the instruction produces no value
	Args []VReg // source operands
	Imm  int64  // integer constant / load-store offset / local slot index
	FImm float64
	Sym  string // global symbol or call target

	// IsFloat marks loads/stores/consts that move F64 values.
	IsFloat bool

	// ImmArg marks integer ALU instructions whose second operand is the
	// immediate Imm instead of a register (Args has length 1), mirroring
	// the MIPS addi/andi/slti forms the paper's listings use.
	ImmArg bool

	// Blk and Idx locate the instruction (maintained by Block helpers).
	Blk *Block
	Idx int

	// ID is a function-unique instruction identifier assigned by
	// Func.Renumber; the RDG and the partitioner key off it.
	ID int

	// Line is the 1-based source line this instruction was lowered from
	// (0 when unknown, e.g. compiler-synthesized glue). Optimization
	// passes rewrite instructions in place, so the line survives constant
	// folding, CSE, LICM and friends; passes that synthesize fresh
	// instructions are expected to copy the line from the instruction
	// they derive from.
	Line int
}

// NumberedString formats the instruction with its ID.
func (in *Instr) NumberedString() string {
	return fmt.Sprintf("i%-3d %s", in.ID, in.String())
}

// String formats the instruction in a readable assembly-like syntax.
func (in *Instr) String() string {
	switch in.Op {
	case OpConst:
		if in.IsFloat {
			return fmt.Sprintf("%s = const %g", in.Dst, in.FImm)
		}
		return fmt.Sprintf("%s = const %d", in.Dst, in.Imm)
	case OpAddrGlobal:
		return fmt.Sprintf("%s = addrg %s+%d", in.Dst, in.Sym, in.Imm)
	case OpAddrLocal:
		return fmt.Sprintf("%s = addrl slot%d", in.Dst, in.Imm)
	case OpLoad:
		kind := "i64"
		if in.IsFloat {
			kind = "f64"
		}
		return fmt.Sprintf("%s = load.%s [%s+%d]", in.Dst, kind, in.Args[0], in.Imm)
	case OpStore:
		kind := "i64"
		if in.IsFloat {
			kind = "f64"
		}
		return fmt.Sprintf("store.%s [%s+%d] = %s", kind, in.Args[1], in.Imm, in.Args[0])
	case OpCall:
		s := ""
		if in.Dst != 0 {
			s = in.Dst.String() + " = "
		}
		s += "call " + in.Sym + "("
		for i, a := range in.Args {
			if i > 0 {
				s += ", "
			}
			s += a.String()
		}
		return s + ")"
	case OpBr:
		return fmt.Sprintf("br %s -> b%d, b%d", in.Args[0], in.Blk.Succs[0].ID, in.Blk.Succs[1].ID)
	case OpJmp:
		return fmt.Sprintf("jmp -> b%d", in.Blk.Succs[0].ID)
	case OpRet:
		if len(in.Args) > 0 {
			return fmt.Sprintf("ret %s", in.Args[0])
		}
		return "ret"
	}
	s := ""
	if in.Dst != 0 {
		s = in.Dst.String() + " = "
	}
	s += in.Op.String()
	for i, a := range in.Args {
		if i == 0 {
			s += " "
		} else {
			s += ", "
		}
		s += a.String()
	}
	if in.ImmArg {
		s += fmt.Sprintf(", #%d", in.Imm)
	}
	return s
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block

	// LoopDepth is the static loop nesting depth, used by the
	// probabilistic profile estimate (p_B * 5^d_B).
	LoopDepth int
}

// Append adds an instruction at the end of the block.
func (b *Block) Append(in *Instr) *Instr {
	in.Blk = b
	in.Idx = len(b.Instrs)
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore inserts instruction in before position idx.
func (b *Block) InsertBefore(in *Instr, idx int) {
	in.Blk = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
	for i := idx; i < len(b.Instrs); i++ {
		b.Instrs[i].Idx = i
	}
}

// RemoveAt deletes the instruction at position idx.
func (b *Block) RemoveAt(idx int) {
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
	for i := idx; i < len(b.Instrs); i++ {
		b.Instrs[i].Idx = i
	}
}

// Terminator returns the block's final instruction, or nil if empty.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Func is a single function.
type Func struct {
	Name   string
	Params []VReg // parameter virtual registers, in order
	Blocks []*Block
	Entry  *Block

	// Line is the 1-based source line of the function declaration;
	// synthesized frame code (prologue/epilogue) is attributed here.
	Line int

	// RetType is the function's return type.
	RetType Type

	// vregTypes[v] is the type of virtual register v; index 0 unused.
	vregTypes []Type

	// LocalSlots is the number of 8-byte words of frame-local array
	// storage referenced by OpAddrLocal (slot index -> word offset).
	LocalSlots  []int64 // size in words of each slot
	nextBlockID int
	instrCount  int
}

// NewFunc creates an empty function.
func NewFunc(name string, ret Type) *Func {
	f := &Func{Name: name, RetType: ret, vregTypes: make([]Type, 1)}
	return f
}

// NewVReg allocates a fresh virtual register of type t.
func (f *Func) NewVReg(t Type) VReg {
	f.vregTypes = append(f.vregTypes, t)
	return VReg(len(f.vregTypes) - 1)
}

// VRegType returns the type of v.
func (f *Func) VRegType(v VReg) Type {
	if v <= 0 || int(v) >= len(f.vregTypes) {
		return Void
	}
	return f.vregTypes[v]
}

// NumVRegs returns one past the largest virtual register id.
func (f *Func) NumVRegs() int { return len(f.vregTypes) }

// NewBlock creates a new basic block in the function.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBlockID}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// AddLocalSlot registers a frame-local array of n words and returns its
// slot index.
func (f *Func) AddLocalSlot(words int64) int64 {
	f.LocalSlots = append(f.LocalSlots, words)
	return int64(len(f.LocalSlots) - 1)
}

// Renumber assigns sequential IDs to all instructions and fixes Idx fields.
// Call after any structural mutation and before building the RDG.
func (f *Func) Renumber() {
	id := 0
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			in.Blk = b
			in.Idx = i
			in.ID = id
			id++
		}
	}
	f.instrCount = id
}

// NumInstrs returns the instruction count as of the last Renumber.
func (f *Func) NumInstrs() int { return f.instrCount }

// NumBlockIDs returns one past the largest block ID the function has
// handed out: the length of any state indexed by Block.ID.
func (f *Func) NumBlockIDs() int { return f.nextBlockID }

// RemoveUnreachable deletes blocks not reachable from the entry and fixes
// predecessor lists.
func (f *Func) RemoveUnreachable() {
	reach := make([]bool, f.nextBlockID)
	stack := make([]*Block, 1, len(f.Blocks))
	stack[0] = f.Entry
	reach[f.Entry.ID] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !reach[s.ID] {
				reach[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b.ID] {
			kept = append(kept, b)
		}
	}
	clear(f.Blocks[len(kept):])
	f.Blocks = kept
	f.RecomputePreds()
}

// RecomputePreds rebuilds all predecessor lists from successor lists.
func (f *Func) RecomputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

// Global is a module-scope variable or array.
type Global struct {
	Name    string
	Words   int64 // size in 8-byte words
	IsFloat bool
	InitInt []int64
	InitFlt []float64
}

// Module is a compiled translation unit.
type Module struct {
	Funcs   []*Func
	Globals []*Global

	funcByName map[string]*Func
}

// NewModule creates an empty module.
func NewModule() *Module {
	return &Module{funcByName: make(map[string]*Func)}
}

// AddFunc appends fn to the module.
func (m *Module) AddFunc(fn *Func) {
	m.Funcs = append(m.Funcs, fn)
	m.funcByName[fn.Name] = fn
}

// Lookup returns the function named name, or nil.
func (m *Module) Lookup(name string) *Func {
	return m.funcByName[name]
}

// Global returns the global named name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}
