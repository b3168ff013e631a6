package codegen

import (
	"fmt"

	"fpint/internal/core"
	"fpint/internal/ir"
	"fpint/internal/isa"
)

// partInfo answers partition queries during selection. A nil partition
// means the conventional (baseline) compilation: everything integer stays
// in the INT subsystem.
type partInfo struct {
	p *core.Partition
	g *core.Graph

	copyInstr    map[int]bool // instr ID whose def value gets an INT→FPa copy
	dupInstr     map[int]bool // instr ID duplicated into FPa
	outCopyInstr map[int]bool // instr ID whose FPa value is copied back to INT
	paramCopy    map[int]bool // parameter index copied INT→FPa at entry
}

func newPartInfo(p *core.Partition) *partInfo {
	pi := &partInfo{
		p:            p,
		copyInstr:    make(map[int]bool),
		dupInstr:     make(map[int]bool),
		outCopyInstr: make(map[int]bool),
		paramCopy:    make(map[int]bool),
	}
	if p == nil {
		return pi
	}
	pi.g = p.G
	fill := func(set map[core.NodeID]bool, instrs, params map[int]bool) {
		for id := range set {
			n := pi.g.Nodes[id]
			if n.Instr != nil {
				instrs[n.Instr.ID] = true
			} else if params != nil {
				params[n.ParamIdx] = true
			}
		}
	}
	fill(p.CopyNodes, pi.copyInstr, pi.paramCopy)
	fill(p.DupNodes, pi.dupInstr, nil)
	fill(p.OutCopyNodes, pi.outCopyInstr, nil)
	return pi
}

// mainFPa reports whether the (non-split) instruction executes in FPa.
func (pi *partInfo) mainFPa(in *ir.Instr) bool {
	if pi.p == nil {
		return false
	}
	id, ok := pi.g.NodeForInstr(in.ID)
	return ok && pi.p.InFPa(id)
}

// loadValFPa reports whether an integer load's value lands in the FP file.
func (pi *partInfo) loadValFPa(in *ir.Instr) bool {
	if pi.p == nil {
		return false
	}
	id, ok := pi.g.LoadValNode(in.ID)
	return ok && pi.p.InFPa(id)
}

// storeValFPa reports whether an integer store's value comes from the FP file.
func (pi *partInfo) storeValFPa(in *ir.Instr) bool {
	if pi.p == nil {
		return false
	}
	id, ok := pi.g.StoreValNode(in.ID)
	return ok && pi.p.InFPa(id)
}

var intALU = map[ir.Op]isa.Opcode{
	ir.OpAdd: isa.ADD, ir.OpSub: isa.SUB, ir.OpMul: isa.MUL,
	ir.OpDiv: isa.DIV, ir.OpRem: isa.REM,
	ir.OpAnd: isa.AND, ir.OpOr: isa.OR, ir.OpXor: isa.XOR, ir.OpNor: isa.NOR,
	ir.OpShl: isa.SLL, ir.OpShrA: isa.SRA, ir.OpShrL: isa.SRL,
	ir.OpCmpEQ: isa.SEQ, ir.OpCmpNE: isa.SNE, ir.OpCmpLT: isa.SLT,
	ir.OpCmpLE: isa.SLE, ir.OpCmpGT: isa.SGT, ir.OpCmpGE: isa.SGE,
}

var fpaALU = map[ir.Op]isa.Opcode{
	ir.OpAdd: isa.ADDA, ir.OpSub: isa.SUBA,
	ir.OpAnd: isa.ANDA, ir.OpOr: isa.ORA, ir.OpXor: isa.XORA, ir.OpNor: isa.NORA,
	ir.OpShl: isa.SLLA, ir.OpShrA: isa.SRAA, ir.OpShrL: isa.SRLA,
	ir.OpCmpEQ: isa.SEQA, ir.OpCmpNE: isa.SNEA, ir.OpCmpLT: isa.SLTA,
	ir.OpCmpLE: isa.SLEA, ir.OpCmpGT: isa.SGTA, ir.OpCmpGE: isa.SGEA,
}

var floatALU = map[ir.Op]isa.Opcode{
	ir.OpFAdd: isa.FADD, ir.OpFSub: isa.FSUB, ir.OpFMul: isa.FMUL,
	ir.OpFDiv: isa.FDIV, ir.OpFNeg: isa.FNEG,
	ir.OpFCmpEQ: isa.FSEQ, ir.OpFCmpNE: isa.FSNE, ir.OpFCmpLT: isa.FSLT,
	ir.OpFCmpLE: isa.FSLE, ir.OpFCmpGT: isa.FSGT, ir.OpFCmpGE: isa.FSGE,
}

// selector lowers one IR function to machine IR.
type selector struct {
	fn   *ir.Func
	pi   *partInfo
	mf   *mfunc
	cur  *mblock
	plan *FPArgPlan

	intHome map[ir.VReg]int
	fpHome  map[ir.VReg]int

	// fpNeeded marks vregs some FP-file consumer reads (FPa instructions,
	// duplicates, FPa stores/branches, FP-passed call arguments);
	// intNeeded marks vregs some integer-file consumer reads (INT
	// instructions, addresses, int-passed call arguments, returns, CVTIF).
	// FPa definitions emit an FPa→INT copy only when intNeeded — this is
	// what lets the interprocedural FP-argument extension drop the §6.4
	// out-copies that FP passing makes unnecessary.
	fpNeeded  map[ir.VReg]bool
	intNeeded map[ir.VReg]bool

	// curLine/curIROp are the debug provenance of the IR instruction being
	// selected; emit stamps them onto every machine instruction so copies,
	// duplicates, and other expansion glue inherit the site's source line.
	curLine int
	curIROp uint8
}

// maxRegArgs is how many arguments of each class fit in registers; the
// compiler rejects functions needing more (none of the workloads do).
const maxRegArgs = 4

func selectFunc(fn *ir.Func, p *core.Partition, plan *FPArgPlan) (*mfunc, error) {
	s := &selector{
		fn:        fn,
		pi:        newPartInfo(p),
		mf:        newMfunc(),
		plan:      plan,
		intHome:   make(map[ir.VReg]int),
		fpHome:    make(map[ir.VReg]int),
		fpNeeded:  make(map[ir.VReg]bool),
		intNeeded: make(map[ir.VReg]bool),
	}
	s.mf.line = fn.Line
	// Frame-local array slots occupy the bottom of the frame.
	s.mf.slotOff = make([]int64, len(fn.LocalSlots))
	var off int64
	for i, words := range fn.LocalSlots {
		s.mf.slotOff[i] = off
		off += words * 8
	}
	s.mf.localWords = off / 8

	s.computeNeeds()
	if err := s.emitAll(); err != nil {
		return nil, err
	}
	return s.mf, nil
}

// computeNeeds scans the function and records, per virtual register, which
// register files its consumers read from. The sets mirror exactly the
// intOf/fpOf reads the instruction selector performs, so a definition can
// emit precisely the cross-file moves its uses require.
func (s *selector) computeNeeds() {
	intNeed := func(v ir.VReg) {
		if s.fn.VRegType(v) == ir.I64 {
			s.intNeeded[v] = true
		}
	}
	fpNeed := func(v ir.VReg) {
		if s.fn.VRegType(v) == ir.I64 {
			s.fpNeeded[v] = true
		}
	}
	for _, b := range s.fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				intNeed(in.Args[0])
			case ir.OpStore:
				intNeed(in.Args[1])
				if !in.IsFloat {
					if s.pi.storeValFPa(in) {
						fpNeed(in.Args[0])
					} else {
						intNeed(in.Args[0])
					}
				}
			case ir.OpBr:
				if s.pi.mainFPa(in) {
					fpNeed(in.Args[0])
				} else {
					intNeed(in.Args[0])
				}
			case ir.OpCvtIF:
				intNeed(in.Args[0])
			case ir.OpCall:
				switch in.Sym {
				case "print":
					intNeed(in.Args[0])
				case "printf_":
					// float argument; no integer-file need
				default:
					for j, a := range in.Args {
						if s.fn.VRegType(a) != ir.I64 {
							continue
						}
						if s.plan.FPPassed(in.Sym, j) {
							fpNeed(a)
						} else {
							intNeed(a)
						}
					}
				}
			case ir.OpRet:
				if len(in.Args) == 1 && s.fn.VRegType(in.Args[0]) == ir.I64 {
					intNeed(in.Args[0])
				}
			case ir.OpJmp, ir.OpNop, ir.OpAddrGlobal, ir.OpAddrLocal, ir.OpConst:
				// no register reads
			case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFNeg,
				ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE,
				ir.OpFCmpGT, ir.OpFCmpGE, ir.OpCvtFI:
				// F64 reads only
			default:
				// Integer ALU and copies.
				if s.pi.mainFPa(in) {
					for _, a := range in.Args {
						fpNeed(a)
					}
				} else {
					for _, a := range in.Args {
						intNeed(a)
					}
				}
			}
			// Duplicated instructions re-read their operands from the FP
			// file (except re-loads, which reuse the INT-side address).
			if in.Dst != 0 && s.pi.dupInstr[in.ID] && in.Op != ir.OpLoad {
				for _, a := range in.Args {
					fpNeed(a)
				}
			}
		}
	}
}

func (s *selector) intOf(v ir.VReg) int {
	if r, ok := s.intHome[v]; ok {
		return r
	}
	r := s.mf.newVirt(isa.IntReg)
	s.intHome[v] = r
	return r
}

func (s *selector) fpOf(v ir.VReg) int {
	if r, ok := s.fpHome[v]; ok {
		return r
	}
	r := s.mf.newVirt(isa.FpReg)
	s.fpHome[v] = r
	return r
}

func (s *selector) emit(m minst) {
	if m.line == 0 {
		m.line = s.curLine
		m.irop = s.curIROp
	}
	s.cur.insts = append(s.cur.insts, m)
}

func (s *selector) emitAll() error {
	// Create machine blocks mirroring IR blocks, in the same layout order.
	blockByID := make(map[int]*mblock)
	for _, b := range s.fn.Blocks {
		mb := &mblock{id: b.ID}
		for _, sc := range b.Succs {
			mb.succs = append(mb.succs, sc.ID)
		}
		s.mf.blocks = append(s.mf.blocks, mb)
		blockByID[b.ID] = mb
	}
	// Epilogue block: all returns jump here.
	epi := &mblock{id: epilogueBlockID}
	s.mf.blocks = append(s.mf.blocks, epi)

	// Parameter intake in the entry block, attributed to the declaration.
	s.cur = blockByID[s.fn.Entry.ID]
	s.curLine, s.curIROp = s.fn.Line, 0
	intIdx, fpIdx := 0, 0
	for i, pv := range s.fn.Params {
		if s.fn.VRegType(pv) == ir.F64 {
			if fpIdx >= maxRegArgs {
				return fmt.Errorf("codegen: %s: too many float parameters", s.fn.Name)
			}
			s.emit(minst{op: isa.FMOV, rd: s.fpOf(pv), rs: int(isa.FRegA0) + fpIdx, rt: noReg, target: -1})
			fpIdx++
			continue
		}
		if s.plan.FPPassed(s.fn.Name, i) {
			// §6.6 interprocedural extension: the integer argument arrives
			// in an FP register; move it within the FP file and copy to the
			// integer file only if some consumer needs it there.
			if fpIdx >= maxRegArgs {
				return fmt.Errorf("codegen: %s: too many FP-passed parameters", s.fn.Name)
			}
			s.emit(minst{op: isa.MOVA, rd: s.fpOf(pv), rs: int(isa.FRegA0) + fpIdx, rt: noReg, target: -1})
			fpIdx++
			if s.intNeeded[pv] {
				s.emit(minst{op: isa.CP2INT, rd: s.intOf(pv), rs: s.fpOf(pv), rt: noReg, target: -1})
			}
			continue
		}
		if intIdx >= maxRegArgs {
			return fmt.Errorf("codegen: %s: too many integer parameters", s.fn.Name)
		}
		s.emit(minst{op: isa.MOV, rd: s.intOf(pv), rs: isa.RegA0 + intIdx, rt: noReg, target: -1})
		intIdx++
		if s.pi.paramCopy[i] || s.fpNeeded[pv] {
			s.emit(minst{op: isa.CP2FP, rd: s.fpOf(pv), rs: s.intOf(pv), rt: noReg, target: -1})
		}
	}

	for _, b := range s.fn.Blocks {
		s.cur = blockByID[b.ID]
		for _, in := range b.Instrs {
			if err := s.instr(in, b); err != nil {
				return err
			}
		}
	}

	// Epilogue body (frame teardown) is synthesized during assembly; here
	// it only carries the return jump.
	epi.insts = append(epi.insts, minst{op: isa.JR, rd: noReg, rs: isa.RegRA, rt: noReg, target: -1, line: s.fn.Line})
	return nil
}

func (s *selector) instr(in *ir.Instr, b *ir.Block) error {
	s.curLine, s.curIROp = in.Line, uint8(in.Op)
	fpa := s.pi.mainFPa(in)
	switch in.Op {
	case ir.OpNop:
		return nil

	case ir.OpConst:
		if in.IsFloat {
			s.emit(minst{op: isa.LID, rd: s.fpOf(in.Dst), rs: noReg, rt: noReg, fimm: in.FImm, target: -1})
			return nil
		}
		if fpa {
			s.emit(minst{op: isa.LIA, rd: s.fpOf(in.Dst), rs: noReg, rt: noReg, imm: in.Imm, target: -1})
			s.afterFpaDef(in)
			return nil
		}
		s.emit(minst{op: isa.LI, rd: s.intOf(in.Dst), rs: noReg, rt: noReg, imm: in.Imm, target: -1})
		s.afterIntDef(in)
		return nil

	case ir.OpCopy:
		if s.fn.VRegType(in.Dst) == ir.F64 {
			s.emit(minst{op: isa.FMOV, rd: s.fpOf(in.Dst), rs: s.fpOf(in.Args[0]), rt: noReg, target: -1})
			return nil
		}
		if fpa {
			s.emit(minst{op: isa.MOVA, rd: s.fpOf(in.Dst), rs: s.fpArg(in.Args[0]), rt: noReg, target: -1})
			s.afterFpaDef(in)
			return nil
		}
		s.emit(minst{op: isa.MOV, rd: s.intOf(in.Dst), rs: s.intOf(in.Args[0]), rt: noReg, target: -1})
		s.afterIntDef(in)
		return nil

	case ir.OpAddrGlobal:
		if fpa {
			s.emit(minst{op: isa.LIA, rd: s.fpOf(in.Dst), rs: noReg, rt: noReg, sym: in.Sym, imm: in.Imm, target: -1})
			s.afterFpaDef(in)
			return nil
		}
		s.emit(minst{op: isa.LI, rd: s.intOf(in.Dst), rs: noReg, rt: noReg, sym: in.Sym, imm: in.Imm, target: -1})
		s.afterIntDef(in)
		return nil

	case ir.OpAddrLocal:
		// SP + frame offset of the slot. Local array slots occupy the
		// bottom of the frame, so the offset is final at selection time.
		tmp := s.mf.newVirt(isa.IntReg)
		s.emit(minst{op: isa.LI, rd: tmp, rs: noReg, rt: noReg, imm: s.mf.slotOff[in.Imm], target: -1})
		s.emit(minst{op: isa.ADD, rd: s.intOf(in.Dst), rs: isa.RegSP, rt: tmp, target: -1})
		s.afterIntDef(in)
		return nil

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNor,
		ir.OpShl, ir.OpShrA, ir.OpShrL,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
		rt2 := func(intSide bool) int {
			if in.ImmArg {
				return noReg
			}
			if intSide {
				return s.intOf(in.Args[1])
			}
			return s.fpArg(in.Args[1])
		}
		if fpa {
			op, ok := fpaALU[in.Op]
			if !ok {
				return fmt.Errorf("codegen: %s: op %s assigned to FPa but unsupported there", s.fn.Name, in.Op)
			}
			s.emit(minst{op: op, rd: s.fpOf(in.Dst), rs: s.fpArg(in.Args[0]), rt: rt2(false), imm: in.Imm, useImm: in.ImmArg, target: -1})
			s.afterFpaDef(in)
			return nil
		}
		s.emit(minst{op: intALU[in.Op], rd: s.intOf(in.Dst), rs: s.intOf(in.Args[0]), rt: rt2(true), imm: in.Imm, useImm: in.ImmArg, target: -1})
		s.afterIntDef(in)
		return nil

	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		s.emit(minst{op: floatALU[in.Op], rd: s.fpOf(in.Dst), rs: s.fpOf(in.Args[0]), rt: s.fpOf(in.Args[1]), target: -1})
		return nil
	case ir.OpFNeg:
		s.emit(minst{op: isa.FNEG, rd: s.fpOf(in.Dst), rs: s.fpOf(in.Args[0]), rt: noReg, target: -1})
		return nil

	case ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE:
		// The comparison executes in the FP subsystem and delivers an
		// integer truth value; codegen materializes it in the integer file
		// and mirrors it to the FP file when FPa consumers exist.
		s.emit(minst{op: floatALU[in.Op], rd: s.intOf(in.Dst), rs: s.fpOf(in.Args[0]), rt: s.fpOf(in.Args[1]), target: -1})
		s.mirrorFixedDef(in.Dst)
		return nil

	case ir.OpCvtIF:
		s.emit(minst{op: isa.CVTIF, rd: s.fpOf(in.Dst), rs: s.intOf(in.Args[0]), rt: noReg, target: -1})
		return nil
	case ir.OpCvtFI:
		s.emit(minst{op: isa.CVTFI, rd: s.intOf(in.Dst), rs: s.fpOf(in.Args[0]), rt: noReg, target: -1})
		s.mirrorFixedDef(in.Dst)
		return nil

	case ir.OpLoad:
		base := s.intOf(in.Args[0])
		if in.IsFloat {
			s.emit(minst{op: isa.LD, rd: s.fpOf(in.Dst), rs: base, rt: noReg, imm: in.Imm, target: -1})
			return nil
		}
		if s.pi.loadValFPa(in) {
			s.emit(minst{op: isa.LWFA, rd: s.fpOf(in.Dst), rs: base, rt: noReg, imm: in.Imm, target: -1})
			// A fixed-FP consumer (CvtIF) may still read the value from
			// the integer file even though no partitionable INT node does.
			s.afterFpaDef(in)
			return nil
		}
		s.emit(minst{op: isa.LW, rd: s.intOf(in.Dst), rs: base, rt: noReg, imm: in.Imm, target: -1})
		// Duplicated load value: re-load into the FP file (the duplicate
		// uses the INT-side address, where backward slices stop).
		if s.pi.dupInstr[in.ID] {
			s.emit(minst{op: isa.LWFA, rd: s.fpOf(in.Dst), rs: base, rt: noReg, imm: in.Imm, target: -1, isDup: true})
		} else if s.pi.copyInstr[in.ID] {
			s.emit(minst{op: isa.CP2FP, rd: s.fpOf(in.Dst), rs: s.intOf(in.Dst), rt: noReg, target: -1})
		}
		return nil

	case ir.OpStore:
		base := s.intOf(in.Args[1])
		if in.IsFloat {
			s.emit(minst{op: isa.SD, rd: noReg, rs: s.fpOf(in.Args[0]), rt: base, imm: in.Imm, target: -1})
			return nil
		}
		if s.pi.storeValFPa(in) {
			s.emit(minst{op: isa.SWFA, rd: noReg, rs: s.fpArg(in.Args[0]), rt: base, imm: in.Imm, target: -1})
			return nil
		}
		s.emit(minst{op: isa.SW, rd: noReg, rs: s.intOf(in.Args[0]), rt: base, imm: in.Imm, target: -1})
		return nil

	case ir.OpCall:
		return s.call(in)

	case ir.OpBr:
		cond := in.Args[0]
		if fpa {
			s.emit(minst{op: isa.BNEZA, rd: noReg, rs: s.fpArg(cond), rt: noReg, target: b.Succs[0].ID})
		} else {
			s.emit(minst{op: isa.BNEZ, rd: noReg, rs: s.intOf(cond), rt: noReg, target: b.Succs[0].ID})
		}
		s.emit(minst{op: isa.J, rd: noReg, rs: noReg, rt: noReg, target: b.Succs[1].ID})
		return nil

	case ir.OpJmp:
		s.emit(minst{op: isa.J, rd: noReg, rs: noReg, rt: noReg, target: b.Succs[0].ID})
		return nil

	case ir.OpRet:
		if len(in.Args) == 1 {
			if s.fn.VRegType(in.Args[0]) == ir.F64 {
				s.emit(minst{op: isa.FMOV, rd: int(isa.FRegV0), rs: s.fpOf(in.Args[0]), rt: noReg, target: -1})
			} else {
				s.emit(minst{op: isa.MOV, rd: isa.RegV0, rs: s.intOf(in.Args[0]), rt: noReg, target: -1})
			}
		}
		s.emit(minst{op: isa.J, rd: noReg, rs: noReg, rt: noReg, target: epilogueBlockID})
		return nil
	}
	return fmt.Errorf("codegen: %s: unhandled IR op %s", s.fn.Name, in.Op)
}

// fpArg returns the FP-file home of an integer value consumed by an FPa
// instruction.
func (s *selector) fpArg(v ir.VReg) int { return s.fpOf(v) }

// afterIntDef emits the partition-mandated INT→FPa transfer for an integer
// definition executed in INT.
func (s *selector) afterIntDef(in *ir.Instr) {
	if s.pi.copyInstr[in.ID] {
		s.emit(minst{op: isa.CP2FP, rd: s.fpOf(in.Dst), rs: s.intOf(in.Dst), rt: noReg, target: -1})
		return
	}
	if s.pi.dupInstr[in.ID] {
		s.emitDup(in)
	}
}

// emitDup re-executes an INT definition on the FPa side, reading FP-file
// homes of its operands.
func (s *selector) emitDup(in *ir.Instr) {
	switch in.Op {
	case ir.OpConst:
		s.emit(minst{op: isa.LIA, rd: s.fpOf(in.Dst), rs: noReg, rt: noReg, imm: in.Imm, target: -1, isDup: true})
	case ir.OpAddrGlobal:
		s.emit(minst{op: isa.LIA, rd: s.fpOf(in.Dst), rs: noReg, rt: noReg, sym: in.Sym, imm: in.Imm, target: -1, isDup: true})
	case ir.OpCopy:
		s.emit(minst{op: isa.MOVA, rd: s.fpOf(in.Dst), rs: s.fpOf(in.Args[0]), rt: noReg, target: -1, isDup: true})
	default:
		op, ok := fpaALU[in.Op]
		if !ok {
			// Cannot happen for a validated partition; fall back to a copy.
			s.emit(minst{op: isa.CP2FP, rd: s.fpOf(in.Dst), rs: s.intOf(in.Dst), rt: noReg, target: -1})
			return
		}
		rt := noReg
		if !in.ImmArg {
			rt = s.fpOf(in.Args[1])
		}
		s.emit(minst{op: op, rd: s.fpOf(in.Dst), rs: s.fpOf(in.Args[0]), rt: rt, imm: in.Imm, useImm: in.ImmArg, target: -1, isDup: true})
	}
}

// afterFpaDef emits the FPa→INT copy for values some integer-file consumer
// actually reads (calling-convention positions, fixed-FP consumers). With
// the interprocedural FP-argument extension, arguments that travel in FP
// registers stop generating integer-file needs, so the §6.4 out-copy
// disappears here automatically.
func (s *selector) afterFpaDef(in *ir.Instr) {
	if s.intNeeded[in.Dst] {
		s.emit(minst{op: isa.CP2INT, rd: s.intOf(in.Dst), rs: s.fpOf(in.Dst), rt: noReg, target: -1})
	}
}

// mirrorFixedDef mirrors an integer value produced by a fixed-FP
// instruction into the FP file when FPa consumers need it.
func (s *selector) mirrorFixedDef(v ir.VReg) {
	if s.fpNeeded[v] {
		s.emit(minst{op: isa.CP2FP, rd: s.fpOf(v), rs: s.intOf(v), rt: noReg, target: -1})
	}
}

func (s *selector) call(in *ir.Instr) error {
	// Builtin traps.
	switch in.Sym {
	case "print":
		s.emit(minst{op: isa.PRNI, rd: noReg, rs: s.intOf(in.Args[0]), rt: noReg, target: -1})
		return nil
	case "printf_":
		s.emit(minst{op: isa.PRNF, rd: noReg, rs: s.fpOf(in.Args[0]), rt: noReg, target: -1})
		return nil
	}
	intIdx, fpIdx := 0, 0
	for j, a := range in.Args {
		if s.fn.VRegType(a) == ir.F64 {
			if fpIdx >= maxRegArgs {
				return fmt.Errorf("codegen: call %s: too many float arguments", in.Sym)
			}
			s.emit(minst{op: isa.FMOV, rd: int(isa.FRegA0) + fpIdx, rs: s.fpOf(a), rt: noReg, target: -1})
			fpIdx++
			continue
		}
		if s.plan.FPPassed(in.Sym, j) {
			if fpIdx >= maxRegArgs {
				return fmt.Errorf("codegen: call %s: too many FP-passed arguments", in.Sym)
			}
			s.emit(minst{op: isa.MOVA, rd: int(isa.FRegA0) + fpIdx, rs: s.fpOf(a), rt: noReg, target: -1})
			fpIdx++
			continue
		}
		if intIdx >= maxRegArgs {
			return fmt.Errorf("codegen: call %s: too many integer arguments", in.Sym)
		}
		s.emit(minst{op: isa.MOV, rd: isa.RegA0 + intIdx, rs: s.intOf(a), rt: noReg, target: -1})
		intIdx++
	}
	s.emit(minst{op: isa.JAL, rd: noReg, rs: noReg, rt: noReg, sym: in.Sym, target: -1})
	if in.Dst != 0 {
		if s.fn.VRegType(in.Dst) == ir.F64 {
			s.emit(minst{op: isa.FMOV, rd: s.fpOf(in.Dst), rs: int(isa.FRegV0), rt: noReg, target: -1})
		} else {
			s.emit(minst{op: isa.MOV, rd: s.intOf(in.Dst), rs: isa.RegV0, rt: noReg, target: -1})
			// Call results copied into FPa per the partition.
			s.afterIntDef(in)
			if s.fpNeeded[in.Dst] && !s.pi.copyInstr[in.ID] && !s.pi.dupInstr[in.ID] {
				s.emit(minst{op: isa.CP2FP, rd: s.fpOf(in.Dst), rs: s.intOf(in.Dst), rt: noReg, target: -1})
			}
		}
	}
	return nil
}
