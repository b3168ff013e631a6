package codegen

import (
	"slices"
	"testing"

	"fpint/internal/isa"
)

// TestVirtOperandsMatchISA holds the allocator's view of every opcode's
// operands to isa.Operands, the decoder TestOperandSoundness checks
// against the functional simulator. Every field of the instruction holds
// a distinct virtual register, in both the register and the immediate
// form; for each register class, virtOperands must name exactly the
// fields Operands names in that file, with the same read/write sense, and
// list the uses before the def. JAL's write of RA is the one exception: it
// is no field, and the allocator treats it as a clobber.
func TestVirtOperandsMatchISA(t *testing.T) {
	names := [3]string{"rd", "rs", "rt"}
	role := func(field int, write bool) string {
		if write {
			return names[field] + " write"
		}
		return names[field] + " read"
	}
	for op := isa.Opcode(0); op < isa.NumOpcodes; op++ {
		for _, useImm := range []bool{false, true} {
			// Field k holds register k+1 in isa.Inst, firstVirtual+k in minst.
			in := isa.Inst{Op: op, Rd: 1, Rs: 2, Rt: 3, UseImm: useImm}
			dst, src1, src2 := isa.Operands(&in)
			if op == isa.JAL {
				dst = isa.NoReg
			}
			for _, class := range []isa.RegClass{isa.IntReg, isa.FpReg} {
				var want, got []string
				for _, r := range []int16{dst, src1, src2} {
					if r != isa.NoReg && isa.RegClass(r/32) == class {
						want = append(want, role(int(r%32)-1, r == dst))
					}
				}
				m := minst{op: op, rd: firstVirtual, rs: firstVirtual + 1, rt: firstVirtual + 2, useImm: useImm, target: -1}
				ops, n := virtOperands(&m, class)
				for i, o := range ops[:n] {
					if i > 0 && ops[i-1].isDef && !o.isDef {
						t.Errorf("%v useImm=%v class %d: a use follows the def", op, useImm, class)
					}
					got = append(got, role(*o.val-firstVirtual, o.isDef))
				}
				slices.Sort(want)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("%v useImm=%v class %d: virtOperands names %v, isa.Operands %v", op, useImm, class, got, want)
				}
			}
		}
	}
}
