package timeline

import (
	"bytes"
	"strings"
	"testing"
)

// synth builds a valid timeline of n windows of width cycles each. shape
// picks the per-window regime: it returns (issueActive, fpa, stallCause)
// and the remaining cycles are charged to that single stall cause on
// subsystem 0.
func synth(n int, width int64, shape func(i int) (active, fpa int64, cause int)) *Timeline {
	t := &Timeline{
		Schema:      Schema,
		Program:     "synthetic",
		Config:      "test",
		WindowWidth: width,
		IssueWidth:  4,
		Subsystems:  []string{"INT", "FP", "FPa"},
		StallCauses: []string{"raw-wait", "dcache", "frontend"},
	}
	nc := len(t.StallCauses)
	for i := 0; i < n; i++ {
		active, fpa, cause := shape(i)
		w := Window{
			Index:        i,
			StartCycle:   int64(i) * width,
			Cycles:       width,
			Instructions: active * 2,
			IssueActive:  active,
			IssuedINT:    active*2 - fpa,
			IssuedFPa:    fpa,
			Loads:        active / 2,
			IntOccSum:    width * 3,
			ROBOccSum:    width * 8,
			Stalls:       make([]int64, len(t.Subsystems)*nc),
		}
		w.Stalls[cause] = width - active
		t.Windows = append(t.Windows, w)
		t.TotalCycles += w.Cycles
		t.TotalInstructions += w.Instructions
	}
	return t
}

// twoPhase: windows 0..7 are issue-heavy with FPa traffic, 8..15 are
// dcache-bound with none — two clearly separated regimes.
func twoPhase() *Timeline {
	return synth(16, 100, func(i int) (int64, int64, int) {
		if i < 8 {
			return 90, 40, 0
		}
		return 20, 0, 1
	})
}

func TestValidate(t *testing.T) {
	tl := twoPhase()
	if err := tl.Validate(); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}

	broken := twoPhase()
	broken.Windows[3].StartCycle++
	if err := broken.Validate(); err == nil {
		t.Error("window gap not detected")
	}

	broken = twoPhase()
	broken.Windows[5].IssueActive++
	if err := broken.Validate(); err == nil {
		t.Error("open per-window ledger not detected")
	}

	broken = twoPhase()
	broken.TotalCycles++
	if err := broken.Validate(); err == nil {
		t.Error("cycle-sum mismatch not detected")
	}

	broken = twoPhase()
	broken.Windows[0].Stalls = broken.Windows[0].Stalls[:4]
	if err := broken.Validate(); err == nil {
		t.Error("truncated stall matrix not detected")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tl := twoPhase()
	tl.Estimated = true
	tl.SampledFraction = 0.25
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	if !strings.Contains(first, `"schema": "fpint-timeline/v1"`) {
		t.Errorf("schema id missing from document:\n%.200s", first)
	}
	got, err := ReadJSON(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Error("JSON round trip is not byte-stable")
	}
	if !got.Estimated || got.SampledFraction != 0.25 {
		t.Error("fast-mode provenance lost in round trip")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	tl := twoPhase()
	tl.TotalCycles += 7
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(&buf); err == nil {
		t.Error("ReadJSON accepted a document with an open cycle ledger")
	}
}

func TestWriteCSV(t *testing.T) {
	tl := twoPhase()
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1+len(tl.Windows) {
		t.Fatalf("got %d lines, want header + %d windows", len(lines), len(tl.Windows))
	}
	header := strings.Split(lines[0], ",")
	wantCols := 18 + len(tl.StallCauses)
	if len(header) != wantCols {
		t.Fatalf("header has %d columns, want %d: %v", len(header), wantCols, header)
	}
	if header[len(header)-1] != "stall_frontend" {
		t.Errorf("last stall column = %q, want stall_frontend", header[len(header)-1])
	}
	for i, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != wantCols {
			t.Fatalf("row %d has %d columns, want %d", i, got, wantCols)
		}
	}
	// Window 0: 90/100 active, ipc 1.8.
	row := strings.Split(lines[1], ",")
	if row[4] != "1.8" || row[5] != "0.9" {
		t.Errorf("window 0 ipc/active = %s/%s, want 1.8/0.9", row[4], row[5])
	}
}

func TestCounterEvents(t *testing.T) {
	tl := twoPhase()
	events := tl.CounterEvents(1)
	// 6 tracks per sample (ipc, issue, occupancy, offload, hitrates,
	// stalls), one sample per window plus the trailing end-of-run sample.
	want := (len(tl.Windows) + 1) * 6
	if len(events) != want {
		t.Fatalf("got %d events, want %d", len(events), want)
	}
	var prev int64
	for _, e := range events {
		if e.Ph != "C" {
			t.Fatalf("non-counter event %+v", e)
		}
		if e.Ts < prev {
			t.Fatalf("events not in ts order: %d after %d", e.Ts, prev)
		}
		prev = e.Ts
	}
	if last := events[len(events)-1]; last.Ts != tl.TotalCycles {
		t.Errorf("trailing sample at ts %d, want run end %d", last.Ts, tl.TotalCycles)
	}
	for _, e := range events {
		if e.Name != "timeline/stalls" {
			continue
		}
		if _, ok := e.Num["frontend"]; ok {
			t.Fatal("all-zero stall cause not dropped from counter track")
		}
		if _, ok := e.Num["dcache"]; !ok {
			t.Fatal("live stall cause missing from counter track")
		}
	}
}

func TestSegmentTwoPhase(t *testing.T) {
	tl := twoPhase()
	phases := tl.Segment()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2: %+v", len(phases), phases)
	}
	a, b := phases[0], phases[1]
	if a.FirstWindow != 0 || a.LastWindow != 7 || b.FirstWindow != 8 || b.LastWindow != 15 {
		t.Fatalf("phase boundaries %d-%d / %d-%d, want 0-7 / 8-15",
			a.FirstWindow, a.LastWindow, b.FirstWindow, b.LastWindow)
	}
	if a.Cycles+b.Cycles != tl.TotalCycles || a.Instructions+b.Instructions != tl.TotalInstructions {
		t.Error("phases do not partition the run")
	}
	if a.DominantStall != "raw-wait" || b.DominantStall != "dcache" {
		t.Errorf("dominant stalls %q/%q, want raw-wait/dcache", a.DominantStall, b.DominantStall)
	}
	if a.FPaOcc <= b.FPaOcc {
		t.Errorf("phase 0 FPa occupancy %.2f should exceed phase 1's %.2f", a.FPaOcc, b.FPaOcc)
	}
	if a.IPC != 1.8 || b.IPC != 0.4 {
		t.Errorf("phase IPCs %.2f/%.2f, want 1.80/0.40", a.IPC, b.IPC)
	}
}

func TestSegmentAbsorbsOutlier(t *testing.T) {
	// One divergent window inside a steady run must not split a phase
	// when Confirm is 2.
	tl := synth(16, 100, func(i int) (int64, int64, int) {
		if i == 8 {
			return 10, 0, 2
		}
		return 90, 40, 0
	})
	phases := tl.Segment()
	if len(phases) != 1 {
		t.Fatalf("outlier window split the run into %d phases: %+v", len(phases), phases)
	}
	if n := phases[0].LastWindow - phases[0].FirstWindow + 1; n != 16 {
		t.Errorf("phase covers %d windows, want 16", n)
	}
}

func TestSegmentDegenerate(t *testing.T) {
	one := synth(1, 50, func(int) (int64, int64, int) { return 30, 5, 0 })
	phases := one.Segment()
	if len(phases) != 1 || phases[0].Cycles != 50 {
		t.Fatalf("single-window timeline: %+v", phases)
	}
	var empty Timeline
	if got := empty.Segment(); got != nil {
		t.Fatalf("empty timeline produced phases: %+v", got)
	}
}
