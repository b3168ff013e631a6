package uarch_test

import (
	"reflect"
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/faultinject"
	"fpint/internal/obs/timeline"
	"fpint/internal/uarch"
)

// checkClosed cross-checks a recorded timeline against the run's
// independently accumulated stall ledger: window cycles sum to the run's
// cycles, window instructions to retired instructions, and the per-window
// stall mixes reproduce StallBySub cell by cell. This is the same
// invariant the root acceptance test enforces over every testdata
// program; here it guards the recorder's edge cases.
func checkClosed(t *testing.T, tl *timeline.Timeline, st uarch.Stats) {
	t.Helper()
	if tl == nil {
		t.Fatal("no timeline recorded")
	}
	if err := tl.Validate(); err != nil {
		t.Fatalf("timeline invalid: %v", err)
	}
	if tl.TotalCycles != st.Cycles {
		t.Errorf("timeline covers %d cycles, run took %d", tl.TotalCycles, st.Cycles)
	}
	if tl.TotalInstructions != st.Instructions {
		t.Errorf("timeline covers %d instructions, run retired %d", tl.TotalInstructions, st.Instructions)
	}
	nc := len(tl.StallCauses)
	for sub := 0; sub < len(tl.Subsystems); sub++ {
		for c := 0; c < nc; c++ {
			got := int64(0)
			for j := range tl.Windows {
				got += tl.Windows[j].Stalls[sub*nc+c]
			}
			if got != st.StallBySub[sub][c] {
				t.Fatalf("stall[%s][%s]: windows sum to %d, ledger says %d",
					tl.Subsystems[sub], tl.StallCauses[c], got, st.StallBySub[sub][c])
			}
		}
	}
	var active int64
	for i := range tl.Windows {
		active += tl.Windows[i].IssueActive
	}
	if active != st.IssueActiveCycles {
		t.Errorf("window issue-active sums to %d, ledger says %d", active, st.IssueActiveCycles)
	}
}

func compileTimelineProg(t *testing.T, src string) *codegen.Result {
	t.Helper()
	res, _, err := codegen.CompileSource(src, codegen.Options{Scheme: codegen.SchemeAdvanced, Analysis: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res
}

// TestTimelineShortProgram: a program whose whole run fits inside one
// window yields exactly one (partial) window that still closes.
func TestTimelineShortProgram(t *testing.T) {
	res := compileTimelineProg(t, `int main() { return 41 + 1; }`)
	m := uarch.NewMachine(uarch.Config4Way())
	m.SetTimelineWidth(1 << 20)
	_, st, err := m.Run(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	tl := m.Timeline("short")
	checkClosed(t, tl, st)
	if len(tl.Windows) != 1 {
		t.Fatalf("got %d windows, want 1 partial window", len(tl.Windows))
	}
	if tl.Windows[0].Cycles != st.Cycles {
		t.Errorf("single window covers %d cycles, run took %d", tl.Windows[0].Cycles, st.Cycles)
	}
}

// TestTimelineWidthOne: the degenerate one-cycle window width records one
// window per cycle and still closes.
func TestTimelineWidthOne(t *testing.T) {
	res := compileTimelineProg(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 40; i++) s += i * i;
	return s;
}`)
	m := uarch.NewMachine(uarch.Config4Way())
	m.SetTimelineWidth(1)
	_, st, err := m.Run(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	tl := m.Timeline("width1")
	checkClosed(t, tl, st)
	if int64(len(tl.Windows)) != st.Cycles {
		t.Errorf("width-1 recording has %d windows for %d cycles", len(tl.Windows), st.Cycles)
	}
	for i := range tl.Windows {
		if tl.Windows[i].Cycles != 1 {
			t.Fatalf("window %d covers %d cycles, want 1", i, tl.Windows[i].Cycles)
		}
	}
}

// TestTimelineFaultMidWindow: fault-triggered flush/replay landing inside
// windows must not break closure, and the recovery cycles must show up in
// the windows' fault-recovery stall mix along with the injected-fault
// marks.
func TestTimelineFaultMidWindow(t *testing.T) {
	res := compileTimelineProg(t, `
int a[256];
int main() {
	int s = 0;
	for (int rep = 0; rep < 12; rep++) {
		for (int i = 0; i < 256; i++) a[i] = (a[i] ^ (i + rep)) * 3;
		for (int i = 0; i < 256; i++) s += a[i] & 7;
	}
	return s & 1048575;
}`)
	plan := faultinject.NewPlan(faultinject.Config{Seed: 7, Kind: faultinject.KindAny, Rate: 0.002})
	m := uarch.NewMachine(uarch.Config4Way())
	m.SetTimelineWidth(200)
	m.SetFaultPlan(plan)
	_, st, err := m.Run(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected == 0 {
		t.Fatal("no faults injected; raise the rate so recovery lands mid-window")
	}
	tl := m.Timeline("faulty")
	checkClosed(t, tl, st)
	var faults int64
	for i := range tl.Windows {
		faults += tl.Windows[i].Faults
	}
	if faults != st.FaultsInjected {
		t.Errorf("windows record %d faults, run injected %d", faults, st.FaultsInjected)
	}
}

// TestTimelineFastMode: in sampled-timing mode the recorder covers the
// detailed (warmup+measured) cycles contiguously; the timeline still
// closes against the detailed counters even though the run's headline
// stats are extrapolated.
func TestTimelineFastMode(t *testing.T) {
	res := compileTimelineProg(t, `
int a[512];
int main() {
	int s = 0;
	for (int rep = 0; rep < 30; rep++) {
		for (int i = 0; i < 512; i++) a[i] = i ^ rep;
		for (int i = 0; i < 512; i++) if (a[i] & 1) s += a[i];
	}
	return s & 1048575;
}`)
	m := uarch.NewMachine(uarch.Config4Way())
	m.SetTimelineWidth(256)
	_, ss, err := m.RunSampled(res.Prog, uarch.DefaultSampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ss.Exact {
		t.Fatal("program too short to sample; fast-mode timeline not exercised")
	}
	tl := m.Timeline("fast")
	if tl == nil {
		t.Fatal("no timeline recorded in fast mode")
	}
	tl.Estimated = true
	tl.SampledFraction = ss.SampledFraction
	if err := tl.Validate(); err != nil {
		t.Fatalf("fast-mode timeline invalid: %v", err)
	}
	if tl.TotalCycles >= ss.Cycles {
		t.Errorf("detailed windows cover %d cycles, not fewer than the %d-cycle estimate", tl.TotalCycles, ss.Cycles)
	}
	if tl.TotalCycles < ss.MeasuredCycles {
		t.Errorf("timeline covers %d cycles but %d were measured (warmup missing?)", tl.TotalCycles, ss.MeasuredCycles)
	}
	if len(tl.Windows) == 0 {
		t.Fatal("fast-mode run recorded no windows")
	}
}

// TestTimelineWarmReuse: re-running a warm machine with the recorder
// armed reproduces the identical timeline (reset leaks no window state).
func TestTimelineWarmReuse(t *testing.T) {
	res := compileTimelineProg(t, `
int main() {
	int s = 1;
	for (int i = 1; i < 300; i++) s = (s * 31 + i) % 65537;
	return s;
}`)
	m := uarch.NewMachine(uarch.Config8Way())
	m.SetTimelineWidth(128)
	_, st1, err := m.Run(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	first := m.Timeline("reuse")
	checkClosed(t, first, st1)
	_, st2, err := m.Run(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	second := m.Timeline("reuse")
	checkClosed(t, second, st2)
	if len(first.Windows) != len(second.Windows) {
		t.Fatalf("warm rerun changed window count: %d vs %d", len(first.Windows), len(second.Windows))
	}
	for i := range first.Windows {
		if !reflect.DeepEqual(first.Windows[i], second.Windows[i]) {
			t.Fatalf("window %d differs across identical runs:\n%+v\n%+v", i, first.Windows[i], second.Windows[i])
		}
	}
}
