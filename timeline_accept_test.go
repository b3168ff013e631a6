package fpint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/obs/timeline"
	"fpint/internal/uarch"
)

// TestTimelineClosedAcceptance is the flight recorder's contract: on
// EVERY testdata program, under BOTH Table 1 machine configurations, the
// recorded timeline must close against the run's independently
// accumulated ledger — per-window cycles sum to the run's total cycles,
// per-window instructions to retired instructions, and the per-window
// stall mixes reproduce the closed stall ledger cell by cell. The same
// recording, segmented with the shared defaults, must partition the
// windows exactly. The fast-mode variant checks the sampled recorder the
// same way against the detailed (measured) counters it covers.
func TestTimelineClosedAcceptance(t *testing.T) {
	files, err := filepath.Glob("testdata/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	configs := []uarch.Config{uarch.Config4Way(), uarch.Config8Way()}
	const width = 512

	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".c")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := codegen.CompileSource(string(data), codegen.Options{
				Scheme: codegen.SchemeAdvanced, Analysis: true,
			})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, cfg := range configs {
				t.Run(cfg.Name, func(t *testing.T) {
					m := uarch.NewMachine(cfg)
					m.SetTimelineWidth(width)
					_, st, err := m.Run(res.Prog)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					tl := m.Timeline(name)
					checkTimelineClosed(t, tl, st.Cycles, st.Instructions, st.IssueActiveCycles, st.StallBySub)
					checkSegmentation(t, tl)

					// Fast mode: the recorder covers the detailed
					// (warmup+measured) cycles and must close against them.
					fm := uarch.NewMachine(cfg)
					fm.SetTimelineWidth(width)
					_, ss, err := fm.RunSampled(res.Prog, uarch.DefaultSampleConfig())
					if err != nil {
						t.Fatalf("fast run: %v", err)
					}
					ftl := fm.Timeline(name)
					if ftl == nil {
						t.Fatal("fast mode recorded no timeline")
					}
					if !ss.Exact {
						ftl.Estimated = true
						ftl.SampledFraction = ss.SampledFraction
						if ftl.TotalCycles >= ss.Cycles {
							t.Errorf("fast timeline covers %d cycles, not fewer than the %d-cycle estimate",
								ftl.TotalCycles, ss.Cycles)
						}
					}
					if err := ftl.Validate(); err != nil {
						t.Fatalf("fast timeline invalid: %v", err)
					}
					checkSegmentation(t, ftl)
				})
			}
		})
	}
}

// checkTimelineClosed cross-checks a timeline document against the run's
// ledger totals.
func checkTimelineClosed(t *testing.T, tl *timeline.Timeline, cycles, instrs, issueActive int64, stalls [3][uarch.NumStallCauses]int64) {
	t.Helper()
	if tl == nil {
		t.Fatal("no timeline recorded")
	}
	if err := tl.Validate(); err != nil {
		t.Fatalf("timeline invalid: %v", err)
	}
	if tl.TotalCycles != cycles {
		t.Errorf("timeline covers %d cycles, run took %d", tl.TotalCycles, cycles)
	}
	if tl.TotalInstructions != instrs {
		t.Errorf("timeline covers %d instructions, run retired %d", tl.TotalInstructions, instrs)
	}
	nc := len(tl.StallCauses)
	for sub := 0; sub < len(tl.Subsystems); sub++ {
		for c := 0; c < nc; c++ {
			var got int64
			for i := range tl.Windows {
				got += tl.Windows[i].Stalls[sub*nc+c]
			}
			if got != stalls[sub][c] {
				t.Fatalf("stall[%s][%s]: windows sum to %d, ledger says %d",
					tl.Subsystems[sub], tl.StallCauses[c], got, stalls[sub][c])
			}
		}
	}
	var active int64
	for i := range tl.Windows {
		active += tl.Windows[i].IssueActive
	}
	if active != issueActive {
		t.Errorf("window issue-active sums to %d, ledger says %d", active, issueActive)
	}
}

// checkSegmentation verifies the phase table partitions the windows:
// contiguous, in order, covering every window exactly once, with phase
// cycle counts that are exact window sums.
func checkSegmentation(t *testing.T, tl *timeline.Timeline) {
	t.Helper()
	phases := tl.Segment()
	if len(tl.Windows) == 0 {
		if len(phases) != 0 {
			t.Fatalf("empty timeline segmented into %d phases", len(phases))
		}
		return
	}
	next := 0
	var cycles int64
	for i, p := range phases {
		if p.ID != i {
			t.Fatalf("phase %d has ID %d", i, p.ID)
		}
		if p.FirstWindow != next {
			t.Fatalf("phase %d starts at window %d, want %d", i, p.FirstWindow, next)
		}
		if p.LastWindow < p.FirstWindow {
			t.Fatalf("phase %d range inverted: %d-%d", i, p.FirstWindow, p.LastWindow)
		}
		var want int64
		for w := p.FirstWindow; w <= p.LastWindow; w++ {
			want += tl.Windows[w].Cycles
		}
		if p.Cycles != want {
			t.Fatalf("phase %d claims %d cycles, its windows hold %d", i, p.Cycles, want)
		}
		cycles += p.Cycles
		next = p.LastWindow + 1
	}
	if next != len(tl.Windows) {
		t.Fatalf("phases cover windows up to %d, timeline has %d", next, len(tl.Windows))
	}
	if cycles != tl.TotalCycles {
		t.Fatalf("phase cycles sum to %d, timeline covers %d", cycles, tl.TotalCycles)
	}
}
