package sim_test

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"fpint/internal/isa"
	"fpint/internal/sim"
)

// Register values are drawn from small pools so that equal operands, zero
// and nonzero branch conditions and exact float comparisons all occur.
var (
	intPool = []int64{0, 1, -1, 2, 5, 63, 64, 12345, 1 << 40, -(1 << 40)}
	fpPool  = []uint64{0, 1, 2, 7, math.MaxUint64, 1 << 40,
		math.Float64bits(1.5), math.Float64bits(-2), math.Float64bits(0.5), math.Float64bits(1e10)}
)

// memBase is where memory operands point: integer registers of a memory
// instruction hold addresses memBase+8k, and every word they can reach
// holds a distinct value.
const memBase = 4096

func addrPool() []int64 {
	var p []int64
	for k := int64(0); k < 8; k++ {
		p = append(p, memBase+8*k)
	}
	return p
}

// regFile is the architectural register state an instruction starts from.
type regFile struct {
	R [32]int64
	F [32]uint64
}

// get and set address a register by its isa.EncodeReg number.
func (rf *regFile) get(r int16) uint64 {
	if r < 32 {
		return uint64(rf.R[r])
	}
	return rf.F[r-32]
}

func (rf *regFile) set(r int16, v uint64) {
	if r < 32 {
		rf.R[r] = int64(v)
	} else {
		rf.F[r-32] = v
	}
}

// outcome is everything one instruction's execution can show: its record,
// the trap it raised, the next PC, the value of its declared destination,
// the memory word it addressed, and its output.
type outcome struct {
	rec    sim.Record
	trap   string
	nextPC int
	result uint64
	word   uint64
	output string
}

// oneInst is a program whose PC 0 is the instruction under test: HALT sits
// at the fall-through PC 1 and at the branch target PC 2.
func oneInst(in isa.Inst) *isa.Program {
	p := &isa.Program{
		Insts:      []isa.Inst{in, {Op: isa.HALT}, {Op: isa.HALT}},
		FuncOf:     []string{"main", "main", "main"},
		FuncEntry:  map[string]int{"main": 0},
		GlobalAddr: map[string]int64{"mem": 0},
		DataWords:  map[int64]uint64{},
		DataTop:    memBase + 8*16,
	}
	for k := int64(0); k < 16; k++ {
		p.DataWords[memBase+8*k] = uint64(1000 + k)
	}
	return p
}

// execute runs the one instruction of p from rf and reports its outcome,
// failing the test if a register other than dst changed (or any register,
// when the instruction trapped).
func execute(t *testing.T, m *sim.Machine, p *isa.Program, rf regFile, dst int16) outcome {
	t.Helper()
	m.Reset(p)
	m.R, m.F = rf.R, rf.F
	var buf [1]sim.Record
	n, _, err := m.Step(buf[:])
	var o outcome
	if err != nil {
		o.trap = err.Error()
	} else if n != 1 {
		t.Fatalf("%s: Step committed %d records", &p.Insts[0], n)
	}
	o.rec, o.nextPC = buf[0], m.PC
	after := regFile{m.R, m.F}
	if dst != isa.NoReg && err == nil {
		o.result = after.get(dst)
		after.set(dst, rf.get(dst))
	}
	if after != rf {
		t.Errorf("%s: changed a register other than its declared destination %d (trap: %q)", &p.Insts[0], dst, o.trap)
	}
	if isa.IsStore(p.Insts[0].Op) && err == nil {
		o.word = uint64(m.ReadGlobalInt("mem", o.rec.MemAddr/8))
	}
	if err == nil {
		m.PC = 1
		_, res, err := m.Step(buf[:])
		if err != nil || res == nil {
			t.Fatalf("%s: HALT after the instruction: %v", &p.Insts[0], err)
		}
		o.output = res.Output
	}
	return o
}

// TestOperandSoundness checks isa.Operands, the decoder the timing model's
// dataflow rests on, against what the functional simulator actually does.
// For every opcode but HALT, in register and immediate form, one
// instruction runs on random register contents, and then once more with
// each of several registers perturbed — every register its fields name, in
// either file, RA, and some at random (never the hardwired R0):
//   - perturbing a register that is not a declared source leaves the
//     result, the memory write, the branch outcome and the next PC alone;
//   - no register but the declared destination changes;
//   - each declared source changes the outcome in some trial, so a
//     declared operand (an immediate form's src2, say) is really read.
func TestOperandSoundness(t *testing.T) {
	const trials = 64
	rng := rand.New(rand.NewPCG(17, 1998))
	m := sim.NewMachine()
	for op := isa.Opcode(0); op < isa.NumOpcodes; op++ {
		if op == isa.HALT {
			continue
		}
		ints := intPool
		imms := intPool
		if isa.IsMem(op) {
			ints, imms = addrPool(), []int64{0, 8, 16, 24}
		}
		executed := false
		for _, useImm := range []bool{false, true} {
			var declared, read [2]bool
			for trial := 0; trial < trials; trial++ {
				in := isa.Inst{
					Op: op, Rd: uint8(rng.IntN(32)), Rs: uint8(rng.IntN(32)), Rt: uint8(rng.IntN(32)),
					Imm: imms[rng.IntN(len(imms))], FImm: 2.25, Target: 2, UseImm: useImm,
				}
				p := oneInst(in)
				dst, src1, src2 := isa.Operands(&in)
				var rf regFile
				for r := 1; r < 32; r++ {
					rf.R[r] = ints[rng.IntN(len(ints))]
				}
				for r := range rf.F {
					rf.F[r] = fpPool[rng.IntN(len(fpPool))]
				}
				base := execute(t, m, p, rf, dst)
				if base.trap == "" {
					executed = true
				}
				// Perturb the registers the instruction's fields name, in
				// both files, plus RA and a few others at random.
				var regs []int16
				for _, n := range []uint8{in.Rd, in.Rs, in.Rt, isa.RegRA, uint8(rng.IntN(32)), uint8(rng.IntN(32))} {
					regs = append(regs, isa.EncodeReg(isa.IntReg, n), isa.EncodeReg(isa.FpReg, n))
				}
				for i, r := range regs {
					if r == 0 || slices.Contains(regs[:i], r) {
						continue // R0 is hardwired; r was done
					}
					pert := rf
					for pert.get(r) == rf.get(r) {
						if r < 32 {
							pert.set(r, uint64(ints[rng.IntN(len(ints))]))
						} else {
							pert.set(r, fpPool[rng.IntN(len(fpPool))])
						}
					}
					got := execute(t, m, p, pert, dst)
					for k, src := range [2]int16{src1, src2} {
						if src == r {
							declared[k] = true
							read[k] = read[k] || got != base
						}
					}
					if r != src1 && r != src2 && got != base {
						t.Fatalf("%s: perturbing undeclared source %d changed the outcome\n base: %+v\n  got: %+v", &in, r, base, got)
					}
				}
			}
			for k := range declared {
				if declared[k] && !read[k] {
					t.Errorf("%v (imm %v): declared src%d never changed the outcome in %d trials", op, useImm, k+1, trials)
				}
			}
		}
		if !executed {
			t.Errorf("%v: never executed without a trap", op)
		}
	}
}
