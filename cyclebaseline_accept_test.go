package fpint

import (
	"reflect"
	"testing"

	"fpint/internal/bench"
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
