package uarch_test

import (
	"encoding/json"
	"strings"
	"testing"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/obs"
	"fpint/internal/sim"
	"fpint/internal/uarch"
)

// timeWithJournal compiles src and runs the timing model with a journal
// armed, returning both the stats and the journal.
func timeWithJournal(t *testing.T, src string, scheme codegen.Scheme, cfg uarch.Config, limit int) (uarch.Stats, *uarch.Journal) {
	t.Helper()
	res, _, err := codegen.CompileSource(src, codegen.Options{Scheme: scheme})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := uarch.NewMachine(cfg)
	m.SetJournalLimit(limit)
	_, st, err := m.Run(res.Prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return st, m.Journal()
}

// Every non-issuing cycle must be attributed to exactly one stall cause:
// IssueActiveCycles + Σ StallBySub == Cycles, on every scheme and machine.
func TestStallAccountingComplete(t *testing.T) {
	for _, scheme := range []codegen.Scheme{codegen.SchemeNone, codegen.SchemeAdvanced} {
		for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
			_, st := compileAndTime(t, loopSrc, scheme, cfg)
			if err := st.StallAccountingError(); err != 0 {
				t.Errorf("%v/%s: accounting error %d (cycles=%d active=%d stalls=%d)",
					scheme, cfg.Name, err, st.Cycles, st.IssueActiveCycles, st.TotalStallCycles())
			}
			if st.IssueActiveCycles <= 0 {
				t.Errorf("%v/%s: no issue-active cycles recorded", scheme, cfg.Name)
			}
		}
	}
}

// Occupancy histograms sample exactly one bucket per cycle, and the issue
// slot distribution covers every cycle too.
func TestOccupancyHistogramsCoverEveryCycle(t *testing.T) {
	_, st := compileAndTime(t, loopSrc, codegen.SchemeAdvanced, uarch.Config4Way())
	sum := func(xs []int64) int64 {
		var s int64
		for _, x := range xs {
			s += x
		}
		return s
	}
	for name, occ := range map[string][]int64{
		"IntWinOcc": st.IntWinOcc, "FpWinOcc": st.FpWinOcc,
		"ROBOcc": st.ROBOcc, "IssueSlotCycles": st.IssueSlotCycles,
	} {
		if got := sum(occ); got != st.Cycles {
			t.Errorf("%s samples %d cycles, want %d", name, got, st.Cycles)
		}
	}
}

// Stats.AddTo must export a registry whose per-subsystem stall counters sum
// (with issue-active cycles) back to the cycle count — the same invariant
// `fpisim -json -` exposes to external consumers.
func TestStatsAddToRegistryInvariant(t *testing.T) {
	_, st := compileAndTime(t, loopSrc, codegen.SchemeAdvanced, uarch.Config4Way())
	r := obs.NewRegistry()
	st.AddTo(r, obs.PrefixUarch)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("registry JSON invalid: %v", err)
	}
	var stalls int64
	for k, v := range doc.Counters {
		if strings.HasPrefix(k, obs.PrefixUarch+"stall.") {
			stalls += v
		}
	}
	cycles := doc.Counters[obs.PrefixUarch+obs.MetricCycles]
	active := doc.Counters[obs.PrefixUarch+obs.MetricIssueActiveCycles]
	if cycles == 0 || active+stalls != cycles {
		t.Errorf("exported invariant broken: active %d + stalls %d != cycles %d", active, stalls, cycles)
	}
}

// The journal must record the true fetch cycle, not an approximation:
// fetch strictly precedes dispatch-completion ordering up the pipeline.
func TestJournalFetchAtIsTrueFetchCycle(t *testing.T) {
	_, j := timeWithJournal(t, loopSrc, codegen.SchemeAdvanced, uarch.Config4Way(), 400)
	if len(j.Entries) == 0 {
		t.Fatal("empty journal")
	}
	for i, e := range j.Entries {
		if e.FetchAt <= 0 {
			t.Fatalf("entry %d: FetchAt=%d not recorded", i, e.FetchAt)
		}
		if !(e.FetchAt <= e.IssueAt && e.IssueAt <= e.DoneAt && e.DoneAt <= e.CommitAt) {
			t.Fatalf("entry %d out of order: F=%d I=%d D=%d C=%d",
				i, e.FetchAt, e.IssueAt, e.DoneAt, e.CommitAt)
		}
	}
	// With a finite fetch width, not every instruction can be fetched on
	// cycle 1 — true fetch cycles must spread out (the old dispatchAt-1
	// approximation also spread, but collapsed fetch-group structure: a
	// whole fetch group shares one FetchAt now).
	groups := make(map[int64]int)
	for _, e := range j.Entries {
		groups[e.FetchAt]++
	}
	if len(groups) < 2 {
		t.Error("all journal entries share one fetch cycle")
	}
	for at, n := range groups {
		if n > uarch.Config4Way().FetchWidth {
			t.Errorf("cycle %d fetched %d instructions, exceeds fetch width", at, n)
		}
	}
}

// The exported pipeline trace must be valid trace-event JSON with one
// frontend/exec/commit span triple per journal entry.
func TestJournalWriteTraceValidJSON(t *testing.T) {
	_, j := timeWithJournal(t, loopSrc, codegen.SchemeAdvanced, uarch.Config4Way(), 200)
	var sb strings.Builder
	if err := j.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := map[string]int{}
	meta := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans[e.Cat]++
		case "M":
			meta++
		}
	}
	n := len(j.Entries)
	for _, cat := range []string{"frontend", "exec", "commit"} {
		if spans[cat] != n {
			t.Errorf("%d %q spans for %d journal entries", spans[cat], cat, n)
		}
	}
	if meta == 0 {
		t.Error("no thread_name metadata events")
	}
}

func TestJournalStringEmpty(t *testing.T) {
	j := &uarch.Journal{}
	s := j.String()
	if s == "" {
		t.Fatal("empty journal should still render a header")
	}
	if strings.Count(s, "\n") != 1 {
		t.Errorf("empty journal should render exactly the header line:\n%q", s)
	}
}

// A bpred-recovery cycle is charged to the mispredicted branch even in the
// cycle the branch commits: the blame is recorded when fetch blocks, not
// looked up in the ROB, so no recovery cycle lands on UnknownPC.
func TestBpredRecoveryBlamesBranch(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles named workloads")
	}
	s := bench.NewSuite()
	for _, w := range bench.IntWorkloads() {
		if w.Name != "li" && w.Name != "compress" {
			continue
		}
		for _, scheme := range []codegen.Scheme{codegen.SchemeNone, codegen.SchemeBasic} {
			res, err := s.Compile(&w, scheme)
			if err != nil {
				t.Fatal(err)
			}
			m := uarch.NewMachine(uarch.Config4Way())
			m.SetProfiling(true)
			if _, _, err := m.Run(res.Prog); err != nil {
				t.Fatal(err)
			}
			if u := m.Profile().Samples[uarch.UnknownPC]; u != nil && u.Stall[uarch.StallBpredRecovery] != 0 {
				t.Errorf("%s/%v: %d bpred-recovery cycles charged to UnknownPC, want 0",
					w.Name, scheme, u.Stall[uarch.StallBpredRecovery])
			}
		}
	}
}

func TestStallCauseNames(t *testing.T) {
	seen := map[string]bool{}
	for c := uarch.StallCause(0); int(c) < uarch.NumStallCauses; c++ {
		name := c.String()
		if name == "" {
			t.Fatalf("cause %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate cause name %q", name)
		}
		seen[name] = true
	}
}

func TestOffloadFractionZeroSafe(t *testing.T) {
	var st sim.Stats
	if f := st.OffloadFraction(); f != 0 {
		t.Errorf("OffloadFraction on zero stats = %v, want 0", f)
	}
}
