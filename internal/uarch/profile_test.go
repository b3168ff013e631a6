package uarch

import (
	"testing"

	"fpint/internal/isa"
)

// buildProfProg assembles a small program with a loop, a load, and FPa
// traffic so the profiler sees active cycles, RAW stalls, and retirements
// across several PCs.
func buildProfProg() *isa.Program {
	prog := &isa.Program{
		FuncEntry:  map[string]int{"main": 0},
		GlobalAddr: map[string]int64{"g": 8},
		DataWords:  map[int64]uint64{8: 5},
	}
	prog.Insts = []isa.Inst{
		{Op: isa.LI, Rd: 8, Imm: 8, SrcLine: 1},                       // 0: addr of g
		{Op: isa.LW, Rd: 9, Rs: 8, SrcLine: 2},                        // 1: n = g
		{Op: isa.LI, Rd: 10, Imm: 0, SrcLine: 3},                      // 2: sum = 0
		{Op: isa.ADD, Rd: 10, Rs: 10, Rt: 9, SrcLine: 4},              // 3: sum += n
		{Op: isa.SUB, Rd: 9, Rs: 9, Imm: 1, UseImm: true, SrcLine: 5}, // 4: n--
		{Op: isa.BNEZ, Rs: 9, Target: 3, SrcLine: 5},                  // 5: loop
		{Op: isa.CP2FP, Rd: 1, Rs: 10, SrcLine: 6},                    // 6: to FPa
		{Op: isa.ADDA, Rd: 2, Rs: 1, Rt: 1, SrcLine: 6},
		{Op: isa.CP2INT, Rd: 11, Rs: 2, SrcLine: 6},
		{Op: isa.MOV, Rd: isa.RegV0, Rs: 11, SrcLine: 7},
		{Op: isa.HALT, SrcLine: 7},
	}
	for range prog.Insts {
		prog.FuncOf = append(prog.FuncOf, "main")
	}
	return prog
}

// TestCycleProfileClosedLedger checks the per-PC attribution invariant on
// both Table 1 machine configurations: every simulated cycle is charged to
// exactly one PC, so the per-PC sums reproduce Stats.Cycles and the
// per-cause splits are internally consistent.
func TestCycleProfileClosedLedger(t *testing.T) {
	for _, cfg := range []Config{Config4Way(), Config8Way()} {
		t.Run(cfg.Name, func(t *testing.T) {
			prog := buildProfProg()
			m := NewMachine(cfg)
			m.SetProfiling(true)
			_, st, err := m.Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			prof := m.Profile()
			if st.StallAccountingError() != 0 {
				t.Fatalf("aggregate stall ledger not closed: %d", st.StallAccountingError())
			}
			if prof.Cycles != st.Cycles {
				t.Fatalf("profile charged %d cycles, simulator ran %d", prof.Cycles, st.Cycles)
			}
			if got := prof.TotalAttributed(); got != st.Cycles {
				t.Fatalf("Σ per-PC cycles = %d, want %d", got, st.Cycles)
			}
			var active, retired int64
			for pc, s := range prof.Samples {
				var stall int64
				for _, n := range s.Stall {
					stall += n
				}
				if s.Active+stall != s.Cycles {
					t.Fatalf("pc %d: active %d + stalls %d != cycles %d", pc, s.Active, stall, s.Cycles)
				}
				var bySub int64
				for _, n := range s.BySub {
					bySub += n
				}
				if bySub != s.Cycles {
					t.Fatalf("pc %d: subsystem split %d != cycles %d", pc, bySub, s.Cycles)
				}
				active += s.Active
				retired += s.Retired
			}
			if active != st.IssueActiveCycles {
				t.Fatalf("Σ active = %d, want IssueActiveCycles %d", active, st.IssueActiveCycles)
			}
			if retired != st.Instructions {
				t.Fatalf("Σ retired = %d, want Instructions %d", retired, st.Instructions)
			}
			// The loop body must dominate the profile: PCs 3..5 carry the
			// dynamic weight.
			var loop int64
			for pc := 3; pc <= 5; pc++ {
				if s := prof.Samples[pc]; s != nil {
					loop += s.Cycles
				}
			}
			if loop == 0 {
				t.Fatal("no cycles attributed to the loop body")
			}
		})
	}
}

// TestProfileDetached checks that a pipeline without an attached profile
// still runs (nil-profile paths) and reports no profile.
func TestProfileDetached(t *testing.T) {
	prog := buildProfProg()
	_, st, err := Run(prog, Config4Way())
	if err != nil {
		t.Fatal(err)
	}
	if st.StallAccountingError() != 0 {
		t.Fatalf("stall ledger not closed: %d", st.StallAccountingError())
	}
}
