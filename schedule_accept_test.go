package fpint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/faultinject"
	"fpint/internal/isa"
	"fpint/internal/sim"
	"fpint/internal/uarch"
)

// TestSchedulerLegality checks the out-of-order schedule itself, not only
// its totals. A full-length journal is zipped with the functional record
// stream (the same PCs in the same order), each instruction's registers
// come from isa.Operands — whose agreement with the functional simulator
// TestOperandSoundness checks — and every committed instruction must
// respect:
//   - register dataflow: it issues no earlier than the DoneAt of the last
//     older writer of each source;
//   - memory ordering: a load issues no earlier than every older store;
//   - issue limits: per cycle at most IssueWidth issues, and at most
//     IntALUs, FpALUs and LdStPorts per functional-unit class;
//   - commit: in order, at most RetireWidth per cycle, never before DoneAt.
//
// Inputs: every testdata/ program on both Table 1 machines, plus sort.c
// under a fault plan (flushes squash and refetch work), on a shrunk window
// (4+4 entries, 8 in flight), and on an 8-way machine whose in-flight limit
// fills the ROB ring exactly.
func TestSchedulerLegality(t *testing.T) {
	files, err := filepath.Glob("testdata/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	small := uarch.Config4Way()
	small.Name = "4-way-small-window"
	small.IntWindow, small.FpWindow, small.MaxInFlight = 4, 4, 8
	fullRing := uarch.Config8Way()
	fullRing.Name = "8-way-full-ring"
	fullRing.MaxInFlight = 128 - 2*fullRing.FetchWidth

	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".c")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := codegen.CompileSource(string(data), codegen.Options{Scheme: codegen.SchemeAdvanced})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var pcs []int32
			fm := sim.New(res.Prog)
			buf := make([]sim.Record, 4096)
			for {
				n, halted, err := fm.Step(buf)
				if err != nil {
					t.Fatalf("functional run: %v", err)
				}
				for _, r := range buf[:n] {
					pcs = append(pcs, r.PC)
				}
				if halted != nil {
					break
				}
			}
			for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
				checkSchedule(t, cfg, res.Prog, pcs, nil)
			}
			if name != "sort" {
				return
			}
			plan := faultinject.NewPlan(faultinject.Config{Seed: 3, Rate: 0.01})
			checkSchedule(t, uarch.Config4Way(), res.Prog, pcs, plan)
			flushes := 0
			for _, f := range plan.Trace() {
				if f.Kind.Flushes() {
					flushes++
				}
			}
			if flushes == 0 {
				t.Error("fault plan injected no flush: the squash path went unchecked")
			}
			checkSchedule(t, small, res.Prog, pcs, nil)
			checkSchedule(t, fullRing, res.Prog, pcs, nil)
		})
	}
}

// checkSchedule runs prog on cfg with a journal covering every instruction
// and checks the schedule against the functional PC stream (see
// TestSchedulerLegality).
func checkSchedule(t *testing.T, cfg uarch.Config, prog *isa.Program, pcs []int32, plan *faultinject.Plan) {
	t.Helper()
	m := uarch.NewMachine(cfg)
	m.SetJournalLimit(len(pcs))
	m.SetFaultPlan(plan)
	_, st, err := m.Run(prog)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	j := m.Journal().Entries
	if len(j) != len(pcs) || st.Instructions != int64(len(pcs)) {
		t.Fatalf("%s: journal %d entries, %d committed, want %d", cfg.Name, len(j), st.Instructions, len(pcs))
	}
	// Per-cycle issue counts: total, INT ALUs, FP ALUs, load/store ports.
	issued := make([][4]int, st.Cycles+1)
	committed := make([]int, st.Cycles+1)
	var lastWriter [64]int // journal index of the latest writer per register
	for r := range lastWriter {
		lastWriter[r] = -1
	}
	var storeIssue int64 // latest IssueAt among older stores
	bad := 0
	fail := func(format string, args ...any) {
		if bad++; bad <= 5 {
			t.Errorf("%s: "+format, append([]any{cfg.Name}, args...)...)
		}
	}
	for i, e := range j {
		if e.PC != int(pcs[i]) || e.Op != prog.Insts[e.PC].Op {
			t.Fatalf("%s: journal entry %d (pc %d %v) is not functional record pc %d %v", cfg.Name, i, e.PC, e.Op, pcs[i], prog.Insts[pcs[i]].Op)
		}
		dst, src1, src2 := isa.Operands(&prog.Insts[e.PC])
		for _, src := range [2]int16{src1, src2} {
			if src < 0 || lastWriter[src] < 0 {
				continue
			}
			if w := j[lastWriter[src]]; e.IssueAt < w.DoneAt {
				fail("seq %d issues at %d before its producer seq %d is done at %d", e.Seq, e.IssueAt, w.Seq, w.DoneAt)
			}
		}
		if isa.IsLoad(e.Op) && e.IssueAt < storeIssue {
			fail("load seq %d issues at %d before an older store issued at %d", e.Seq, e.IssueAt, storeIssue)
		}
		if isa.IsStore(e.Op) {
			storeIssue = max(storeIssue, e.IssueAt)
		}
		if dst >= 0 {
			lastWriter[dst] = i
		}
		u := &issued[e.IssueAt]
		u[0]++
		switch {
		case isa.IsMem(e.Op):
			u[3]++
		case e.Sub == isa.SubINT:
			u[1]++
		default:
			u[2]++
		}
		committed[e.CommitAt]++
		if e.CommitAt < e.DoneAt {
			fail("seq %d commits at %d before it is done at %d", e.Seq, e.CommitAt, e.DoneAt)
		}
		if i > 0 && e.CommitAt < j[i-1].CommitAt {
			fail("seq %d commits at %d, before older seq %d at %d", e.Seq, e.CommitAt, j[i-1].Seq, j[i-1].CommitAt)
		}
	}
	limits := [4]int{cfg.IssueWidth, cfg.IntALUs, cfg.FpALUs, cfg.LdStPorts}
	units := [4]string{"issues", "INT ALU issues", "FP ALU issues", "load/store issues"}
	for c := range issued {
		for k, n := range issued[c] {
			if n > limits[k] {
				fail("cycle %d: %d %s, limit %d", c, n, units[k], limits[k])
			}
		}
		if committed[c] > cfg.RetireWidth {
			fail("cycle %d: %d commits, retire width %d", c, committed[c], cfg.RetireWidth)
		}
	}
}
