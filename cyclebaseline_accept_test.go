package fpint

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/obs/runstore"
	"fpint/internal/uarch"
)

// BASELINE_RUNS.jsonl is the one cycle baseline: it pins, as run records,
// every cycle count Figures 9/10 and §7.5 report. These tests keep it
// complete, and make `go test` itself fail, not only the CI gate, when the
// timing model or the compiler moves those cycles.

// cycleBaseline loads the checked-in store (Load verifies every record's
// content hash) and returns its latest record per trend line.
func cycleBaseline(t *testing.T) map[runstore.Key]runstore.Record {
	t.Helper()
	recs, err := runstore.Open("BASELINE_RUNS.jsonl").Load()
	if err != nil {
		t.Fatal(err)
	}
	return runstore.LatestPerKey(recs)
}

// cycleJobKey is the trend line `fpistat record -suite` files a job under
// in the given timing mode (runstore.TimingDetailed or, with -fast,
// runstore.TimingFast).
func cycleJobKey(j bench.CycleJob, mode string) runstore.Key {
	return runstore.Key{Kind: runstore.KindSim, Program: j.Workload.Name,
		Config: j.Config.Name, Scheme: j.Scheme.String(), TimingMode: mode}
}

// TestCycleBaselineCoversFigureJobs requires one closed-ledger record per
// figure job, in detailed and in fast mode.
func TestCycleBaselineCoversFigureJobs(t *testing.T) {
	latest := cycleBaseline(t)
	jobs := bench.CycleJobs()
	if len(jobs) != 7*3*2+5*3 {
		t.Fatalf("%d cycle jobs, want 57 (7 int × 3 schemes × 2 configs + 5 FP × 3 schemes)", len(jobs))
	}
	for _, mode := range []string{runstore.TimingDetailed, runstore.TimingFast} {
		for _, j := range jobs {
			k := cycleJobKey(j, mode)
			rec, ok := latest[k]
			if !ok {
				t.Errorf("%s (timing %q): no record in BASELINE_RUNS.jsonl", k, mode)
				continue
			}
			if rec.Guest.Cycles <= 0 || !rec.Guest.LedgerClosed() {
				t.Errorf("%s (timing %q): degenerate or open ledger: cycles=%d issueActive=%d stalls=%d",
					k, mode, rec.Guest.Cycles, rec.Guest.IssueActive, rec.Guest.StallTotal())
			}
		}
	}
}

// TestCycleBaselineReproduces re-measures the li and ear jobs (one integer
// workload on both machines, one FP workload, every figure scheme), in
// detailed and in fast mode, and demands the baseline's guest block
// exactly: cycles, stall ledger, dynamic instructions, offload, copies and
// memory traffic.
func TestCycleBaselineReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed-model measurement")
	}
	latest := cycleBaseline(t)
	detailed, fast := bench.NewSuite(), bench.NewSuite()
	fast.SetFast(uarch.DefaultSampleConfig())
	for _, run := range []struct {
		mode string
		s    *bench.Suite
	}{{runstore.TimingDetailed, detailed}, {runstore.TimingFast, fast}} {
		for _, j := range bench.CycleJobs() {
			if j.Workload.Name != "li" && j.Workload.Name != "ear" {
				continue
			}
			k := cycleJobKey(j, run.mode)
			m, err := run.s.Measure(&j.Workload, j.Scheme, j.Config)
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			got, want := bench.GuestFromMeasurement(m), latest[k].Guest
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (timing %q): guest block moved from the baseline\n got: %+v\nwant: %+v", k, run.mode, got, want)
			}
		}
	}
}

// TestExperimentsTablesMatchBaseline recomputes EXPERIMENTS.md's Figure 8,
// 9 and 10 and §7.5 tables from the detailed cycle baseline and compares
// them cell by cell, so a re-recorded baseline cannot leave the document
// behind. It simulates nothing. Speedup is conventional cycles over scheme
// cycles minus one, with a sign; offload is the record's offloadPct.
func TestExperimentsTablesMatchBaseline(t *testing.T) {
	latest := cycleBaseline(t)
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	guest := func(w, cfg string, sch codegen.Scheme) runstore.Guest {
		k := runstore.Key{Kind: runstore.KindSim, Program: w, Config: cfg, Scheme: sch.String()}
		rec, ok := latest[k]
		if !ok {
			t.Fatalf("%s: no record in BASELINE_RUNS.jsonl", k)
		}
		return rec.Guest
	}
	offload := func(w string, sch codegen.Scheme) string {
		return fmt.Sprintf("%.1f%%", guest(w, "4-way", sch).OffloadPct)
	}
	speedup := func(w, cfg string, sch codegen.Scheme) string {
		v := 100 * (float64(guest(w, cfg, codegen.SchemeNone).Cycles)/float64(guest(w, cfg, sch).Cycles) - 1)
		return strings.Replace(fmt.Sprintf("%+.1f%%", v), "-", "\u2212", 1)
	}
	basic, adv := codegen.SchemeBasic, codegen.SchemeAdvanced
	for _, tab := range []struct {
		heading string
		class   string
		cells   func(w string) []string
	}{
		{"## Figure 8 ", "int", func(w string) []string { return []string{offload(w, basic), offload(w, adv)} }},
		{"## Figure 9 ", "int", func(w string) []string { return []string{speedup(w, "4-way", basic), speedup(w, "4-way", adv)} }},
		{"## Figure 10 ", "int", func(w string) []string { return []string{speedup(w, "8-way", basic), speedup(w, "8-way", adv)} }},
		{"## §7.5 ", "fp", func(w string) []string { return []string{offload(w, adv), speedup(w, "4-way", adv)} }},
	} {
		rows := markdownTable(t, string(doc), tab.heading)
		var names []string
		for _, w := range bench.Workloads() {
			if w.Class == tab.class {
				names = append(names, w.Name)
			}
		}
		if len(rows) != len(names) {
			t.Errorf("%q table has %d rows, want one per %s workload (%d)", tab.heading, len(rows), tab.class, len(names))
			continue
		}
		for i, w := range names {
			want := tab.cells(w)
			if row := rows[i]; row[0] != w || len(row) < 1+len(want) {
				t.Errorf("%q row %d is %q, want %s with %d cells", tab.heading, i, row, w, len(want))
				continue
			}
			for j, cell := range want {
				if got := rows[i][1+j]; got != cell {
					t.Errorf("%q %s column %d: document says %s, BASELINE_RUNS.jsonl gives %s", tab.heading, w, 1+j, got, cell)
				}
			}
		}
	}
}

// markdownTable returns the body rows, cells trimmed, of the first table
// in the section of doc whose heading line starts with heading.
func markdownTable(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	i := strings.Index(doc, "\n"+heading)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	var rows [][]string
	for _, line := range strings.Split(doc[i+1:], "\n")[1:] {
		if strings.HasPrefix(line, "## ") || len(rows) > 0 && !strings.HasPrefix(line, "|") {
			break
		}
		if strings.HasPrefix(line, "|") {
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for k := range cells {
				cells[k] = strings.TrimSpace(cells[k])
			}
			rows = append(rows, cells)
		}
	}
	if len(rows) < 2 {
		t.Fatalf("EXPERIMENTS.md %q section has no table", heading)
	}
	return rows[2:] // the header and separator rows
}
