package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"fpint/internal/isa"
	"fpint/internal/sim"
	"fpint/internal/trap"
)

// prog assembles a raw instruction sequence with a standard start stub:
// index 0 jumps to main at index 2, and HALT sits at index 1.
func prog(insts ...isa.Inst) *isa.Program {
	all := append([]isa.Inst{
		{Op: isa.JAL, Target: 2},
		{Op: isa.HALT},
	}, insts...)
	p := &isa.Program{
		Insts:      all,
		FuncEntry:  map[string]int{"main": 2},
		GlobalAddr: map[string]int64{},
		DataWords:  map[int64]uint64{},
	}
	for range all {
		p.FuncOf = append(p.FuncOf, "main")
	}
	return p
}

func run(t *testing.T, p *isa.Program) *sim.Result {
	t.Helper()
	m := sim.New(p)
	m.SetStepLimit(1_000_000)
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestHandAssembledALU(t *testing.T) {
	res := run(t, prog(
		isa.Inst{Op: isa.LI, Rd: 8, Imm: 40},
		isa.Inst{Op: isa.LI, Rd: 9, Imm: 2},
		isa.Inst{Op: isa.ADD, Rd: 2, Rs: 8, Rt: 9},
		isa.Inst{Op: isa.JR, Rs: 31},
	))
	if res.Ret != 42 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestImmediateForms(t *testing.T) {
	res := run(t, prog(
		isa.Inst{Op: isa.LI, Rd: 8, Imm: 10},
		isa.Inst{Op: isa.SLL, Rd: 8, Rs: 8, Imm: 2, UseImm: true},  // 40
		isa.Inst{Op: isa.ADD, Rd: 8, Rs: 8, Imm: -5, UseImm: true}, // 35
		isa.Inst{Op: isa.SGT, Rd: 2, Rs: 8, Imm: 34, UseImm: true}, // 1
		isa.Inst{Op: isa.JR, Rs: 31},
	))
	if res.Ret != 1 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestFPaRoundTrip(t *testing.T) {
	// Move an int into the FP file, operate there, move it back.
	res := run(t, prog(
		isa.Inst{Op: isa.LI, Rd: 8, Imm: 6},
		isa.Inst{Op: isa.CP2FP, Rd: 1, Rs: 8},                      // f1 = 6
		isa.Inst{Op: isa.LIA, Rd: 2, Imm: 7},                       // f2 = 7
		isa.Inst{Op: isa.ADDA, Rd: 3, Rs: 1, Rt: 2},                // f3 = 13
		isa.Inst{Op: isa.SLLA, Rd: 3, Rs: 3, Imm: 1, UseImm: true}, // 26
		isa.Inst{Op: isa.CP2INT, Rd: 2, Rs: 3},
		isa.Inst{Op: isa.JR, Rs: 31},
	))
	if res.Ret != 26 {
		t.Fatalf("ret = %d", res.Ret)
	}
	if res.Stats.BySubsys[isa.SubFPa] != 4 {
		t.Fatalf("FPa count = %d, want 4 (lia, adda, slla, cp2int)", res.Stats.BySubsys[isa.SubFPa])
	}
	if res.Stats.Copies != 2 {
		t.Fatalf("copies = %d, want 2", res.Stats.Copies)
	}
}

func TestFPaBranch(t *testing.T) {
	// Loop counted entirely in the FP file via BNEZA.
	res := run(t, prog(
		isa.Inst{Op: isa.LIA, Rd: 1, Imm: 5}, // f1 = counter
		isa.Inst{Op: isa.LIA, Rd: 2, Imm: 0}, // f2 = sum
		// loop at index 4:
		isa.Inst{Op: isa.ADDA, Rd: 2, Rs: 2, Rt: 1},                 // sum += counter
		isa.Inst{Op: isa.ADDA, Rd: 1, Rs: 1, Imm: -1, UseImm: true}, // counter--
		isa.Inst{Op: isa.BNEZA, Rs: 1, Target: 4},
		isa.Inst{Op: isa.CP2INT, Rd: 2, Rs: 1 + 1},
		isa.Inst{Op: isa.JR, Rs: 31},
	))
	if res.Ret != 15 {
		t.Fatalf("ret = %d, want 15", res.Ret)
	}
}

func TestMemoryAndRawBits(t *testing.T) {
	// SWFA/LW round-trip: an integer stored from the FP file reads back
	// identically through the integer file, and vice versa.
	res := run(t, prog(
		isa.Inst{Op: isa.LI, Rd: 9, Imm: 1024}, // base address
		isa.Inst{Op: isa.LIA, Rd: 1, Imm: -123456789},
		isa.Inst{Op: isa.SWFA, Rs: 1, Rt: 9, Imm: 0},
		isa.Inst{Op: isa.LW, Rd: 8, Rs: 9, Imm: 0},
		isa.Inst{Op: isa.LI, Rd: 10, Imm: 7},
		isa.Inst{Op: isa.SW, Rs: 10, Rt: 9, Imm: 8},
		isa.Inst{Op: isa.LWFA, Rd: 2, Rs: 9, Imm: 8},
		isa.Inst{Op: isa.CP2INT, Rd: 11, Rs: 2},
		isa.Inst{Op: isa.ADD, Rd: 2, Rs: 8, Rt: 11}, // -123456789 + 7
		isa.Inst{Op: isa.JR, Rs: 31},
	))
	if res.Ret != -123456782 {
		t.Fatalf("ret = %d", res.Ret)
	}
	if res.Stats.Loads != 2 || res.Stats.Stores != 2 {
		t.Fatalf("loads/stores = %d/%d", res.Stats.Loads, res.Stats.Stores)
	}
}

func TestFloatOps(t *testing.T) {
	res := run(t, prog(
		isa.Inst{Op: isa.LID, Rd: 1, FImm: 1.5},
		isa.Inst{Op: isa.LID, Rd: 2, FImm: 2.5},
		isa.Inst{Op: isa.FADD, Rd: 3, Rs: 1, Rt: 2}, // 4.0
		isa.Inst{Op: isa.FMUL, Rd: 3, Rs: 3, Rt: 3}, // 16.0
		isa.Inst{Op: isa.FSLT, Rd: 8, Rs: 1, Rt: 3}, // 1
		isa.Inst{Op: isa.CVTFI, Rd: 9, Rs: 3},       // 16
		isa.Inst{Op: isa.ADD, Rd: 2, Rs: 8, Rt: 9},  // 17
		isa.Inst{Op: isa.JR, Rs: 31},
	))
	if res.Ret != 17 {
		t.Fatalf("ret = %d", res.Ret)
	}
	if res.Stats.BySubsys[isa.SubFP] == 0 {
		t.Fatal("no FP-subsystem instructions counted")
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	res := run(t, prog(
		isa.Inst{Op: isa.LI, Rd: 0, Imm: 99},
		isa.Inst{Op: isa.MOV, Rd: 2, Rs: 0},
		isa.Inst{Op: isa.JR, Rs: 31},
	))
	if res.Ret != 0 {
		t.Fatalf("write to $0 took effect: ret = %d", res.Ret)
	}
}

// stepAll runs m to completion through Step with a buffer of size records
// and returns every record, the Result and the error.
func stepAll(m *sim.Machine, size int) ([]sim.Record, *sim.Result, error) {
	buf := make([]sim.Record, size)
	var recs []sim.Record
	for {
		n, res, err := m.Step(buf)
		recs = append(recs, buf[:n]...)
		if res != nil || err != nil {
			return recs, res, err
		}
		if n != size {
			return recs, nil, fmt.Errorf("Step filled %d of %d records without HALT or trap", n, size)
		}
	}
}

func TestStepRecords(t *testing.T) {
	p := prog(
		isa.Inst{Op: isa.LI, Rd: 9, Imm: 512},
		isa.Inst{Op: isa.LI, Rd: 8, Imm: 3},
		isa.Inst{Op: isa.SW, Rs: 8, Rt: 9, Imm: 0},
		isa.Inst{Op: isa.LW, Rd: 2, Rs: 9, Imm: 0},
		isa.Inst{Op: isa.BEQZ, Rs: 0, Target: 8}, // absolute index of the JR (stub adds 2)
		isa.Inst{Op: isa.NOP},                    // skipped
		isa.Inst{Op: isa.JR, Rs: 31},
	)
	recs, res, err := stepAll(sim.New(p), 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 3 || int64(len(recs)) != res.Stats.Total {
		t.Fatalf("ret %d, %d records for %d instructions", res.Ret, len(recs), res.Stats.Total)
	}
	var sawStore, sawLoad, sawTaken bool
	for i, r := range recs {
		switch p.Insts[r.PC].Op {
		case isa.SW:
			sawStore = r.MemAddr == 512
		case isa.LW:
			sawLoad = r.MemAddr == 512
		case isa.BEQZ:
			sawTaken = r.Taken && recs[i+1].PC == 8
		}
	}
	if !sawStore || !sawLoad || !sawTaken {
		t.Fatalf("records wrong: store=%v load=%v taken=%v", sawStore, sawLoad, sawTaken)
	}
}

// loopProg sums a 600-word array it first writes, calling a leaf function
// on every iteration, then prints the sum — 5,408 dynamic
// instructions with loads, stores, taken and untaken branches, calls and
// returns. last replaces the PRNI that follows the loop.
func loopProg(last isa.Inst) *isa.Program {
	return prog(
		isa.Inst{Op: isa.LI, Rd: 8, Imm: 0},                         // 2: i
		isa.Inst{Op: isa.LI, Rd: 9, Imm: 600},                       // 3: n
		isa.Inst{Op: isa.LI, Rd: 10, Imm: 4096},                     // 4: p
		isa.Inst{Op: isa.MOV, Rd: 16, Rs: 31},                       // 5: save RA
		isa.Inst{Op: isa.SW, Rs: 8, Rt: 10, Imm: 0},                 // 6: loop: *p = i
		isa.Inst{Op: isa.LW, Rd: 11, Rs: 10, Imm: 0},                // 7
		isa.Inst{Op: isa.JAL, Target: 17},                           // 8: call acc
		isa.Inst{Op: isa.ADD, Rd: 10, Rs: 10, Imm: 8, UseImm: true}, // 9
		isa.Inst{Op: isa.ADD, Rd: 8, Rs: 8, Imm: 1, UseImm: true},   // 10
		isa.Inst{Op: isa.SLT, Rd: 12, Rs: 8, Rt: 9},                 // 11
		isa.Inst{Op: isa.BNEZ, Rs: 12, Target: 6},                   // 12
		last,                                  // 13
		isa.Inst{Op: isa.MOV, Rd: 31, Rs: 16}, // 14
		isa.Inst{Op: isa.JR, Rs: 31},          // 15
		isa.Inst{Op: isa.NOP},                 // 16
		isa.Inst{Op: isa.ADD, Rd: 2, Rs: 2, Rt: 11}, // 17: acc
		isa.Inst{Op: isa.JR, Rs: 31},                // 18
	)
}

// TestStepContract pins Step against Run: any buffer size yields the same
// record stream and the same Result, a trap mid-batch returns exactly the
// records committed before it along with Run's error, and record PCs chain
// along the control flow.
func TestStepContract(t *testing.T) {
	clean := loopProg(isa.Inst{Op: isa.PRNI, Rs: 2})
	want, err := sim.New(clean).Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := stepAll(sim.New(clean), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(ref)) != want.Stats.Total || len(ref) <= 4096 {
		t.Fatalf("%d records for %d instructions", len(ref), want.Stats.Total)
	}
	for i := 0; i+1 < len(ref); i++ {
		r, in := ref[i], clean.Insts[ref[i].PC]
		next := int(r.PC) + 1
		switch {
		case in.Op == isa.JR:
			continue // the target is a register value
		case in.Op == isa.J || in.Op == isa.JAL || r.Taken:
			next = in.Target
		}
		if r.Taken && !isa.IsCondBranch(in.Op) {
			t.Fatalf("record %d: %s marked taken", i, in.Op)
		}
		if int(ref[i+1].PC) != next {
			t.Fatalf("record %d (%s at PC %d, taken %v) is followed by PC %d, want %d", i, in.Op, r.PC, r.Taken, ref[i+1].PC, next)
		}
	}

	cancelAt := func(m *sim.Machine) {
		m.SetRunHook(func(steps int64) error {
			if steps >= 2500 {
				return trap.New(trap.KindCancelled, "sim", "cancelled at %d", steps)
			}
			return nil
		}, 100)
	}
	cases := []struct {
		name  string
		prog  *isa.Program
		arm   func(*sim.Machine)
		count int // records committed before the trap; -1 runs to HALT
	}{
		{"clean", clean, func(*sim.Machine) {}, -1},
		{"divide-by-zero", loopProg(isa.Inst{Op: isa.DIV, Rd: 2, Rs: 2, Rt: 0}), func(*sim.Machine) {}, len(ref) - 3},
		{"step-limit", clean, func(m *sim.Machine) { m.SetStepLimit(1000) }, 1000},
		{"cancel-hook", clean, cancelAt, 2499},
	}
	for _, c := range cases {
		rm := sim.New(c.prog)
		c.arm(rm)
		runRes, runErr := rm.Run()
		for _, size := range []int{1, 3, 4096} {
			m := sim.New(c.prog)
			c.arm(m)
			recs, res, err := stepAll(m, size)
			name := fmt.Sprintf("%s/buffer %d", c.name, size)
			if c.count < 0 {
				if err != nil || !reflect.DeepEqual(res, runRes) {
					t.Errorf("%s: Step gave result %+v, error %v; Run gave %+v", name, res, err, runRes)
				}
				if !reflect.DeepEqual(recs, ref) {
					t.Errorf("%s: record stream differs from the 4096-record reference", name)
				}
				continue
			}
			if runErr == nil || err == nil || err.Error() != runErr.Error() || res != nil {
				t.Errorf("%s: Step error %v, Run error %v", name, err, runErr)
			}
			if !reflect.DeepEqual(recs, ref[:c.count]) {
				t.Errorf("%s: %d records before the trap, want the first %d of the clean stream", name, len(recs), c.count)
			}
		}
	}
}

func TestDivideByZeroTrap(t *testing.T) {
	p := prog(
		isa.Inst{Op: isa.LI, Rd: 8, Imm: 1},
		isa.Inst{Op: isa.LI, Rd: 9, Imm: 0},
		isa.Inst{Op: isa.DIV, Rd: 2, Rs: 8, Rt: 9},
		isa.Inst{Op: isa.JR, Rs: 31},
	)
	if _, err := sim.New(p).Run(); err == nil {
		t.Fatal("division by zero not diagnosed")
	}
}

func TestOutOfRangeMemoryTrap(t *testing.T) {
	p := prog(
		isa.Inst{Op: isa.LI, Rd: 9, Imm: -64},
		isa.Inst{Op: isa.LW, Rd: 2, Rs: 9, Imm: 0},
		isa.Inst{Op: isa.JR, Rs: 31},
	)
	if _, err := sim.New(p).Run(); err == nil {
		t.Fatal("negative address not diagnosed")
	}
}

func TestStepLimit(t *testing.T) {
	p := prog(
		isa.Inst{Op: isa.J, Target: 2}, // spin forever
	)
	m := sim.New(p)
	m.SetStepLimit(1000)
	if _, err := m.Run(); err == nil {
		t.Fatal("step limit not enforced")
	}
}

func TestPrintTraps(t *testing.T) {
	res := run(t, prog(
		isa.Inst{Op: isa.LI, Rd: 8, Imm: -5},
		isa.Inst{Op: isa.PRNI, Rs: 8},
		isa.Inst{Op: isa.LID, Rd: 1, FImm: 2.5},
		isa.Inst{Op: isa.PRNF, Rs: 1},
		isa.Inst{Op: isa.JR, Rs: 31},
	))
	if res.Output != "-5\n2.5\n" {
		t.Fatalf("output = %q", res.Output)
	}
}
