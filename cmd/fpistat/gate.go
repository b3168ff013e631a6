package main

import (
	"flag"
	"io"
	"math"
	"time"

	"fpint/internal/fperr"
	"fpint/internal/obs/runstore"
)

// cmdGate compares current performance against a baseline and exits
// nonzero (fperr.ClassRegression, exit code 5) if anything regressed.
// Two baseline sources:
//
//   - -baseline FILE: another run-record store; its latest record per
//     trend line is the baseline, the -store's latest records are judged.
//     The checked-in cycle baseline is BASELINE_RUNS.jsonl, gated against
//     a store filled by `fpistat record -suite`;
//   - -baseline-rev REV: the records taken at revision REV inside the
//     same -store are the baseline for the store's latest records.
//
// Guest cycles are deterministic and judged exactly by default
// (-guest-tolerance 0); host metrics are judged on min-over-samples with a
// generous -host-tolerance and a -wall-floor below which wall-time noise
// is not actionable.
func cmdGate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fpistat gate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		storePath   = fs.String("store", defaultStore, "run-record store holding the current records")
		baseline    = fs.String("baseline", "", "baseline run-record store (JSONL) to gate against")
		baselineRev = fs.String("baseline-rev", "", "gate the store's latest records against those recorded at this revision")
		guestTol    = fs.Float64("guest-tolerance", 0, "tolerated guest-cycle increase in percent (guest runs are deterministic; keep 0)")
		hostTol     = fs.Float64("host-tolerance", runstore.DefaultHostTolerancePct, "tolerated host wall/alloc increase in percent")
		wallFloor   = fs.Duration("wall-floor", time.Duration(runstore.DefaultMinHostWallNS), "wall-time floor below which host wall regressions are noise")
	)
	if err := fs.Parse(args); err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	if (*baseline == "") == (*baselineRev == "") {
		return fperr.New(fperr.ClassUsage, "gate needs exactly one of -baseline FILE or -baseline-rev REV")
	}
	// A delta regresses when its change exceeds the tolerance, a test that
	// is false for every delta against NaN: such a gate would pass anything.
	for _, tol := range []struct {
		name string
		v    float64
	}{{"guest-tolerance", *guestTol}, {"host-tolerance", *hostTol}} {
		if !(tol.v >= 0) || math.IsInf(tol.v, 1) {
			return fperr.New(fperr.ClassUsage, "-%s %g: want a finite percentage >= 0", tol.name, tol.v)
		}
	}
	if *wallFloor < 0 {
		return fperr.New(fperr.ClassUsage, "-wall-floor %v: want a duration >= 0", *wallFloor)
	}

	current, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	var base []runstore.Record
	if *baseline != "" {
		base, err = loadStore(*baseline)
		if err != nil {
			return err
		}
	} else {
		base = runstore.AtRev(current, *baselineRev)
		if len(base) == 0 {
			return fperr.New(fperr.ClassInput, "no records at revision %q in %s", *baselineRev, *storePath)
		}
		// Judge only records made after the baseline revision; gating the
		// baseline against itself would always pass vacuously.
		var after []runstore.Record
		maxSeq := 0
		for _, r := range base {
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
		}
		for _, r := range current {
			if r.Seq > maxSeq {
				after = append(after, r)
			}
		}
		if len(after) == 0 {
			return fperr.New(fperr.ClassInput, "no records newer than revision %q in %s", *baselineRev, *storePath)
		}
		current = after
	}

	rep := runstore.Gate(base, current, runstore.GateOptions{
		GuestTolerancePct: *guestTol,
		HostTolerancePct:  *hostTol,
		MinHostWallNS:     int64(*wallFloor),
	})
	if len(rep.Deltas) == 0 {
		// A gate that compared nothing must not pass: the current store
		// measured none of the baseline's trend lines.
		return fperr.New(fperr.ClassInput, "no trend line has records on both sides; nothing was gated")
	}
	if err := rep.WriteText(stdout); err != nil {
		return err
	}
	if reg := rep.Regressions(); len(reg) > 0 {
		return fperr.New(fperr.ClassRegression, "%d metric(s) regressed beyond tolerance", len(reg))
	}
	return nil
}
