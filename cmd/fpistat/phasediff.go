package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"fpint/internal/fperr"
	"fpint/internal/obs/timeline"
)

// cmdPhasediff compares two recorded timelines phase by phase: both
// fpint-timeline/v1 documents (fpisim -timeline-json) are segmented with
// the shared defaults, phases are aligned by index, and each row shows
// where the cycles moved and under which dominant stall cause — the
// answer to "which phase regressed and why", not just "the run got
// slower".
func cmdPhasediff(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fpistat phasediff", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	if fs.NArg() != 2 {
		return fperr.New(fperr.ClassUsage, "usage: fpistat phasediff A.json B.json  (fpint-timeline/v1 documents from fpisim -timeline-json)")
	}
	ta, err := timeline.ReadFile(fs.Arg(0))
	if err != nil {
		return fperr.Wrap(fperr.ClassInput, err)
	}
	tb, err := timeline.ReadFile(fs.Arg(1))
	if err != nil {
		return fperr.Wrap(fperr.ClassInput, err)
	}
	return writePhasediff(stdout, fs.Arg(0), fs.Arg(1), ta, tb)
}

// describe renders a timeline's envelope for the diff header.
func describe(t *timeline.Timeline) string {
	mode := "detailed"
	if t.Estimated {
		mode = fmt.Sprintf("estimated, %.1f%% sampled", 100*t.SampledFraction)
	}
	return fmt.Sprintf("%s on %s, %d cycles in %d windows of %d (%s)",
		t.Program, t.Config, t.TotalCycles, len(t.Windows), t.WindowWidth, mode)
}

// pct formats a relative change, guarding the empty-side case.
func pct(a, b float64) string {
	if a == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(b/a-1))
}

// writePhasediff renders the aligned phase comparison.
func writePhasediff(w io.Writer, nameA, nameB string, ta, tb *timeline.Timeline) error {
	pa, pb := ta.Segment(), tb.Segment()
	var sb strings.Builder
	fmt.Fprintf(&sb, "A: %s  %s\n", nameA, describe(ta))
	fmt.Fprintf(&sb, "B: %s  %s\n\n", nameB, describe(tb))
	fmt.Fprintf(&sb, "  %-5s %12s %12s %8s %7s %7s %8s %8s  %s\n",
		"PHASE", "A-CYCLES", "B-CYCLES", "DELTA", "A-IPC", "B-IPC", "A-FPAOCC", "B-FPAOCC", "DOMINANT STALL")
	n := len(pa)
	if len(pb) > n {
		n = len(pb)
	}
	worstIdx, worstPct := -1, 0.0
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%d", i), "-", "-", "-", "-", "-", "-", "-"}
		stall := "-"
		if i < len(pa) {
			a := &pa[i]
			row[1] = fmt.Sprintf("%d", a.Cycles)
			row[4] = fmt.Sprintf("%.2f", a.IPC)
			row[6] = fmt.Sprintf("%.3f", a.FPaOcc)
			stall = fmt.Sprintf("%s %.1f%%", a.DominantStall, 100*a.DominantStallFrac)
		}
		if i < len(pb) {
			b := &pb[i]
			row[2] = fmt.Sprintf("%d", b.Cycles)
			row[5] = fmt.Sprintf("%.2f", b.IPC)
			row[7] = fmt.Sprintf("%.3f", b.FPaOcc)
			bs := fmt.Sprintf("%s %.1f%%", b.DominantStall, 100*b.DominantStallFrac)
			if stall == "-" {
				stall = bs
			} else {
				stall += " -> " + bs
			}
		}
		if i < len(pa) && i < len(pb) && pa[i].Cycles > 0 {
			d := 100 * (float64(pb[i].Cycles)/float64(pa[i].Cycles) - 1)
			row[3] = fmt.Sprintf("%+.1f%%", d)
			if d > worstPct {
				worstIdx, worstPct = i, d
			}
		}
		fmt.Fprintf(&sb, "  %-5s %12s %12s %8s %7s %7s %8s %8s  %s\n",
			row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7], stall)
	}
	fmt.Fprintf(&sb, "\ntotal: %d -> %d cycles (%s), %d -> %d phases\n",
		ta.TotalCycles, tb.TotalCycles, pct(float64(ta.TotalCycles), float64(tb.TotalCycles)), len(pa), len(pb))
	if worstIdx >= 0 {
		fmt.Fprintf(&sb, "largest regression: phase %d, %+.1f%% cycles, dominant stall %s -> %s\n",
			worstIdx, worstPct, pa[worstIdx].DominantStall, pb[worstIdx].DominantStall)
	} else {
		fmt.Fprintf(&sb, "no aligned phase regressed\n")
	}
	if len(pa) != len(pb) {
		fmt.Fprintf(&sb, "note: phase structure changed (%d vs %d phases); unaligned rows show one side only\n", len(pa), len(pb))
	}
	if ta.Estimated != tb.Estimated {
		fmt.Fprintf(&sb, "note: comparing an estimated (fast-mode) timeline against a detailed one; deltas mix sampled and exact cycles\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
