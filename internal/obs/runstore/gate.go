package runstore

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"fpint/internal/obs"
)

// Gate: the regression tribunal. Guest cycles are deterministic, so they
// are judged exactly (default tolerance 0%); host metrics are noisy, so
// they are judged on the min over repeated samples against a generous
// percentage threshold, and tiny runs below a wall-time floor are not
// judged at all. It is the repo's one regression gate: the checked-in
// cycle baseline (BASELINE_RUNS.jsonl) is a store like any other.

// GateOptions tunes the comparison.
type GateOptions struct {
	// GuestTolerancePct is the maximum tolerated guest-cycle increase in
	// percent. Guest cycles are byte-deterministic, so the default of 0
	// (exact) is the honest setting; a nonzero value is for intentionally
	// loose gates.
	GuestTolerancePct float64
	// HostTolerancePct is the maximum tolerated increase in min wall time
	// or min allocations, in percent. Host numbers are noisy; the default
	// (when 0 is passed, DefaultHostTolerancePct) absorbs scheduler and GC
	// jitter while still catching order-of-magnitude regressions.
	HostTolerancePct float64
	// MinHostWallNS is the wall-time floor below which host wall
	// regressions are ignored: a 2× slowdown of a 40µs run is measurement
	// noise, not a finding. Defaults to DefaultMinHostWallNS when 0.
	MinHostWallNS int64
}

// Default gate thresholds.
const (
	DefaultHostTolerancePct = 25.0
	DefaultMinHostWallNS    = int64(2 * time.Millisecond)
)

func (o GateOptions) withDefaults() GateOptions {
	if o.HostTolerancePct == 0 {
		o.HostTolerancePct = DefaultHostTolerancePct
	}
	if o.MinHostWallNS == 0 {
		o.MinHostWallNS = DefaultMinHostWallNS
	}
	return o
}

// Delta is one compared metric of one trend line.
type Delta struct {
	Key       Key
	Metric    string // obs.MetricGuestCycles, obs.MetricHostMinWallNS, obs.MetricHostMinAllocs
	Old, New  float64
	Tolerance float64 // percent allowed before Regressed
	Regressed bool
}

// Pct returns the relative change in percent (positive = worse).
func (d Delta) Pct() float64 {
	if d.Old == 0 {
		return 0
	}
	return 100 * (d.New/d.Old - 1)
}

// GateReport is the full comparison outcome.
type GateReport struct {
	Deltas  []Delta
	Skipped []string // keys present on only one side, in display order
	Opts    GateOptions
}

// Regressions returns the deltas that breached their tolerance.
func (g *GateReport) Regressions() []Delta {
	var out []Delta
	for _, d := range g.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// Gate compares the latest record per trend line on each side. Keys present
// on only one side are reported as skipped, not failed: the gate judges
// performance drift, not record-set drift.
func Gate(baseline, current []Record, opts GateOptions) *GateReport {
	opts = opts.withDefaults()
	base := LatestPerKey(baseline)
	cur := LatestPerKey(current)
	rep := &GateReport{Opts: opts}

	var keys []Key
	skipped := make(map[Key]bool)
	for k := range base {
		if _, ok := cur[k]; ok {
			keys = append(keys, k)
		} else {
			skipped[k] = true
		}
	}
	for k := range cur {
		if _, ok := base[k]; !ok {
			skipped[k] = true
		}
	}
	SortKeys(keys)
	var skippedKeys []Key
	for k := range skipped {
		skippedKeys = append(skippedKeys, k)
	}
	SortKeys(skippedKeys)
	for _, k := range skippedKeys {
		rep.Skipped = append(rep.Skipped, k.String())
	}

	for _, k := range keys {
		b, c := base[k], cur[k]
		if k.Kind != KindGoBench {
			d := Delta{Key: k, Metric: obs.MetricGuestCycles,
				Old: float64(b.Guest.Cycles), New: float64(c.Guest.Cycles),
				Tolerance: opts.GuestTolerancePct}
			d.Regressed = d.Pct() > d.Tolerance
			rep.Deltas = append(rep.Deltas, d)
		}
		if b.Host == nil || c.Host == nil {
			continue
		}
		bw, cw := b.Host.MinWallNS(), c.Host.MinWallNS()
		if bw > 0 && cw > 0 {
			d := Delta{Key: k, Metric: obs.MetricHostMinWallNS,
				Old: float64(bw), New: float64(cw), Tolerance: opts.HostTolerancePct}
			// Below the noise floor on both sides, wall time is judged
			// informational only.
			d.Regressed = d.Pct() > d.Tolerance &&
				(bw >= opts.MinHostWallNS || cw >= opts.MinHostWallNS)
			rep.Deltas = append(rep.Deltas, d)
		}
		ba, ca := b.Host.MinAllocs(), c.Host.MinAllocs()
		if ba > 0 || ca > 0 {
			d := Delta{Key: k, Metric: obs.MetricHostMinAllocs,
				Old: float64(ba), New: float64(ca), Tolerance: opts.HostTolerancePct}
			d.Regressed = d.Pct() > d.Tolerance
			rep.Deltas = append(rep.Deltas, d)
		}
	}
	sort.SliceStable(rep.Deltas, func(i, j int) bool {
		a, b := rep.Deltas[i], rep.Deltas[j]
		if a.Key != b.Key {
			ks := []Key{a.Key, b.Key}
			SortKeys(ks)
			return ks[0] == a.Key
		}
		return a.Metric < b.Metric
	})
	return rep
}

// WriteText renders the gate report as an aligned table plus a verdict
// line. Deterministic for deterministic inputs.
func (g *GateReport) WriteText(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %-17s %14s %14s %9s %s\n",
		"KEY", "METRIC", "BASELINE", "CURRENT", "DELTA", "VERDICT")
	for _, d := range g.Deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = fmt.Sprintf("REGRESSED (>%.0f%%)", d.Tolerance)
		}
		fmt.Fprintf(&sb, "%-40s %-17s %14.0f %14.0f %+8.2f%% %s\n",
			d.Key.String(), d.Metric, d.Old, d.New, d.Pct(), verdict)
	}
	for _, s := range g.Skipped {
		fmt.Fprintf(&sb, "%-40s (only one side has records; skipped)\n", s)
	}
	reg := g.Regressions()
	if len(reg) == 0 {
		fmt.Fprintf(&sb, "gate: ok — %d metrics compared, no regressions (guest tol %.1f%%, host tol %.1f%%)\n",
			len(g.Deltas), g.Opts.GuestTolerancePct, g.Opts.HostTolerancePct)
	} else {
		fmt.Fprintf(&sb, "gate: FAILED — %d of %d metrics regressed\n", len(reg), len(g.Deltas))
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
