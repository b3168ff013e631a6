package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"fpint/internal/fperr"
	"fpint/internal/obs"
	"fpint/internal/obs/runstore"
)

// cmdTrend renders every trend line in the store: one block per
// (program, config, scheme, analysis, fault-mode) key, one row per record
// in append order, with the cycle delta against the previous point. This
// is the store's answer to "what has this workload's performance done over
// the repo's history".
func cmdTrend(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fpistat trend", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	storePath := fs.String("store", defaultStore, "run-record store to read")
	if err := fs.Parse(args); err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	recs, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	return writeTrend(stdout, recs)
}

// loadStore loads and classifies store errors for the CLI rim.
func loadStore(path string) ([]runstore.Record, error) {
	recs, err := runstore.Open(path).Load()
	if err != nil {
		return nil, fperr.Wrap(fperr.ClassInput, err)
	}
	if len(recs) == 0 {
		return nil, fperr.New(fperr.ClassInput, "%s: store is empty (run `fpistat record` first)", path)
	}
	return recs, nil
}

// writeTrend renders the per-key time series as aligned text.
func writeTrend(w io.Writer, recs []runstore.Record) error {
	byKey := runstore.ByKey(recs)
	keys := make([]runstore.Key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	runstore.SortKeys(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "== %s ==\n", k)
		fmt.Fprintf(&sb, "  %-4s %-13s %-13s %12s %9s %8s %11s %10s %9s\n",
			"SEQ", "REV", "HASH", "CYCLES", "DELTA", "OFFLOAD", "MIN-WALL", "SIMS/SEC", "ALLOCS")
		var prev int64
		for i, r := range byKey[k] {
			delta := "-"
			if i > 0 && prev != 0 && r.Kind == runstore.KindSim {
				delta = fmt.Sprintf("%+.2f%%", 100*(float64(r.Guest.Cycles)/float64(prev)-1))
			}
			cycles, offload := "-", "-"
			if r.Kind == runstore.KindSim {
				cycles = fmt.Sprintf("%d", r.Guest.Cycles)
				offload = fmt.Sprintf("%.1f%%", r.Guest.OffloadPct)
			}
			wall, sims, allocs := "-", "-", "-"
			if r.Host != nil && len(r.Host.Samples) > 0 {
				wall = time.Duration(r.Host.MinWallNS()).String()
				allocs = fmt.Sprintf("%d", r.Host.MinAllocs())
				if r.Kind == runstore.KindSim {
					sims = fmt.Sprintf("%.3g", r.Host.SimsPerSec(r.Guest.Cycles))
				}
			}
			fmt.Fprintf(&sb, "  %-4d %-13s %-13s %12s %9s %8s %11s %10s %9s\n",
				r.Seq, r.Rev, r.ShortHash(), cycles, delta, offload, wall, sims, allocs)
			prev = r.Guest.Cycles
		}
	}
	fmt.Fprintf(&sb, "%d record(s), %d trend line(s), %d revision(s)\n",
		len(recs), len(keys), len(runstore.Revs(recs)))
	_, err := io.WriteString(w, sb.String())
	return err
}

// cmdDiff compares two record sets — each side a revision (all its latest
// records) or a single record hash — and prints guest and host deltas side
// by side.
func cmdDiff(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fpistat diff", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	storePath := fs.String("store", defaultStore, "run-record store to read")
	if err := fs.Parse(args); err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	if fs.NArg() != 2 {
		return fperr.New(fperr.ClassUsage, "usage: fpistat diff [-store S] A B  (A and B are revisions or record-hash prefixes)")
	}
	recs, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	a, err := resolveSide(recs, fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := resolveSide(recs, fs.Arg(1))
	if err != nil {
		return err
	}
	return writeDiff(stdout, fs.Arg(0), fs.Arg(1), a, b)
}

// resolveSide interprets a diff operand: first as a revision (full or
// prefix), then as a record-hash prefix.
func resolveSide(recs []runstore.Record, sel string) ([]runstore.Record, error) {
	if at := runstore.AtRev(recs, sel); len(at) > 0 {
		return at, nil
	}
	if byHash := runstore.FindHash(recs, sel); len(byHash) > 0 {
		return byHash, nil
	}
	return nil, fperr.New(fperr.ClassInput, "%q matches no revision and no record hash in the store", sel)
}

// writeDiff renders guest and host metric pairs for every key both sides
// share. When each side resolves to exactly one record — hash selectors —
// the two records are compared directly even across keys, so "what did
// turning the analysis on buy" is one diff away.
func writeDiff(w io.Writer, labelA, labelB string, a, b []runstore.Record) error {
	la, lb := runstore.LatestPerKey(a), runstore.LatestPerKey(b)
	var keys []runstore.Key
	for k := range la {
		if _, ok := lb[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 && len(a) == 1 && len(b) == 1 {
		return writeDiffPair(w, labelA, labelB, a[0], b[0])
	}
	if len(keys) == 0 {
		return fperr.New(fperr.ClassInput, "no trend line has records on both sides (%s vs %s)", labelA, labelB)
	}
	runstore.SortKeys(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "diff %s -> %s\n", labelA, labelB)
	fmt.Fprintf(&sb, "%-40s %-15s %14s %14s %9s\n", "KEY", "METRIC", "A", "B", "DELTA")
	for _, k := range keys {
		ra, rb := la[k], lb[k]
		row := func(metric string, va, vb float64, format string) {
			delta := "-"
			if va != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(vb/va-1))
			}
			fmt.Fprintf(&sb, "%-40s %-15s %14s %14s %9s\n", k, metric,
				fmt.Sprintf(format, va), fmt.Sprintf(format, vb), delta)
		}
		if k.Kind == runstore.KindSim {
			row(obs.MetricGuestCycles, float64(ra.Guest.Cycles), float64(rb.Guest.Cycles), "%.0f")
			row("guest.dyn_instrs", float64(ra.Guest.DynInstrs), float64(rb.Guest.DynInstrs), "%.0f")
			row("guest.offload_pct", ra.Guest.OffloadPct, rb.Guest.OffloadPct, "%.2f")
		}
		if ra.Host != nil && rb.Host != nil && len(ra.Host.Samples) > 0 && len(rb.Host.Samples) > 0 {
			row(obs.MetricHostMinWallNS, float64(ra.Host.MinWallNS()), float64(rb.Host.MinWallNS()), "%.0f")
			row(obs.MetricHostMinAllocs, float64(ra.Host.MinAllocs()), float64(rb.Host.MinAllocs()), "%.0f")
			row(obs.MetricHostMinBytes, float64(ra.Host.MinBytes()), float64(rb.Host.MinBytes()), "%.0f")
			if k.Kind == runstore.KindSim {
				row(obs.PrefixHost+obs.MetricHostSimsPerSec, ra.Host.SimsPerSec(ra.Guest.Cycles), rb.Host.SimsPerSec(rb.Guest.Cycles), "%.0f")
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// writeDiffPair compares two individual records head to head, regardless
// of trend-line key (e.g. the analysis-off seed record against today's
// analysis-on record of the same program).
func writeDiffPair(w io.Writer, labelA, labelB string, ra, rb runstore.Record) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "diff %s -> %s\n", labelA, labelB)
	fmt.Fprintf(&sb, "  A: %s  %s rev=%s\n", ra.ShortHash(), ra.Key(), ra.Rev)
	fmt.Fprintf(&sb, "  B: %s  %s rev=%s\n", rb.ShortHash(), rb.Key(), rb.Rev)
	fmt.Fprintf(&sb, "%-20s %14s %14s %9s\n", "METRIC", "A", "B", "DELTA")
	row := func(metric string, va, vb float64, format string) {
		delta := "-"
		if va != 0 {
			delta = fmt.Sprintf("%+.2f%%", 100*(vb/va-1))
		}
		fmt.Fprintf(&sb, "%-20s %14s %14s %9s\n", metric,
			fmt.Sprintf(format, va), fmt.Sprintf(format, vb), delta)
	}
	if ra.Kind == runstore.KindSim && rb.Kind == runstore.KindSim {
		row(obs.MetricGuestCycles, float64(ra.Guest.Cycles), float64(rb.Guest.Cycles), "%.0f")
		row("guest.dyn_instrs", float64(ra.Guest.DynInstrs), float64(rb.Guest.DynInstrs), "%.0f")
		row("guest.offload_pct", ra.Guest.OffloadPct, rb.Guest.OffloadPct, "%.2f")
		row("guest.copies", float64(ra.Guest.Copies), float64(rb.Guest.Copies), "%.0f")
		row("guest.loads", float64(ra.Guest.Loads), float64(rb.Guest.Loads), "%.0f")
	}
	if ra.Host != nil && rb.Host != nil && len(ra.Host.Samples) > 0 && len(rb.Host.Samples) > 0 {
		row(obs.MetricHostMinWallNS, float64(ra.Host.MinWallNS()), float64(rb.Host.MinWallNS()), "%.0f")
		row(obs.MetricHostMinAllocs, float64(ra.Host.MinAllocs()), float64(rb.Host.MinAllocs()), "%.0f")
		row(obs.MetricHostMinBytes, float64(ra.Host.MinBytes()), float64(rb.Host.MinBytes()), "%.0f")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// cmdReport renders the whole store as markdown and/or JSON — the artifact
// CI uploads so every build carries its trajectory.
func cmdReport(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fpistat report", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		storePath = fs.String("store", defaultStore, "run-record store to read")
		mdOut     = fs.String("md", "", "write the markdown report to the given file (\"-\" for stdout)")
		jsonOut   = fs.String("json", "", "write the JSON report to the given file (\"-\" for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	recs, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	if *mdOut == "" && *jsonOut == "" {
		*mdOut = "-"
	}
	if *mdOut != "" {
		if err := writeTo(*mdOut, stdout, func(w io.Writer) error { return writeMarkdown(w, recs) }); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := writeTo(*jsonOut, stdout, func(w io.Writer) error { return writeReportJSON(w, recs) }); err != nil {
			return err
		}
	}
	return nil
}

// writeMarkdown renders the trend report as GitHub-flavored markdown.
func writeMarkdown(w io.Writer, recs []runstore.Record) error {
	byKey := runstore.ByKey(recs)
	keys := make([]runstore.Key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	runstore.SortKeys(keys)
	revs := runstore.Revs(recs)
	var sb strings.Builder
	sb.WriteString("# fpint performance observatory\n\n")
	fmt.Fprintf(&sb, "%d record(s) across %d trend line(s); revisions: %s.\n\n",
		len(recs), len(keys), strings.Join(revs, " → "))
	for _, k := range keys {
		fmt.Fprintf(&sb, "## %s\n\n", k)
		sb.WriteString("| seq | rev | hash | cycles | Δcycles | offload | min wall | sims/sec | allocs |\n")
		sb.WriteString("|---:|---|---|---:|---:|---:|---:|---:|---:|\n")
		var prev int64
		for i, r := range byKey[k] {
			delta := "—"
			if i > 0 && prev != 0 && r.Kind == runstore.KindSim {
				delta = fmt.Sprintf("%+.2f%%", 100*(float64(r.Guest.Cycles)/float64(prev)-1))
			}
			cycles, offload := "—", "—"
			if r.Kind == runstore.KindSim {
				cycles = fmt.Sprintf("%d", r.Guest.Cycles)
				offload = fmt.Sprintf("%.1f%%", r.Guest.OffloadPct)
			}
			wall, sims, allocs := "—", "—", "—"
			if r.Host != nil && len(r.Host.Samples) > 0 {
				wall = time.Duration(r.Host.MinWallNS()).String()
				allocs = fmt.Sprintf("%d", r.Host.MinAllocs())
				if r.Kind == runstore.KindSim {
					sims = fmt.Sprintf("%.3g", r.Host.SimsPerSec(r.Guest.Cycles))
				}
			}
			fmt.Fprintf(&sb, "| %d | %s | %s | %s | %s | %s | %s | %s | %s |\n",
				r.Seq, r.Rev, r.ShortHash(), cycles, delta, offload, wall, sims, allocs)
			prev = r.Guest.Cycles
		}
		sb.WriteString("\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// ReportSchema identifies the fpistat JSON report layout.
const ReportSchema = "fpint-stat/v1"

// jsonReport is the machine-readable trend report.
type jsonReport struct {
	Schema  string       `json:"schema"`
	Records int          `json:"records"`
	Revs    []string     `json:"revs"`
	Series  []jsonSeries `json:"series"`
}

type jsonSeries struct {
	Kind      string      `json:"kind"`
	Program   string      `json:"program"`
	Config    string      `json:"config"`
	Scheme    string      `json:"scheme"`
	Analysis  bool        `json:"analysis"`
	FaultMode string      `json:"faultMode,omitempty"`
	Points    []jsonPoint `json:"points"`
}

type jsonPoint struct {
	Seq       int     `json:"seq"`
	Rev       string  `json:"rev"`
	Hash      string  `json:"hash"`
	Cycles    int64   `json:"cycles,omitempty"`
	DynInstrs int64   `json:"dynInstrs,omitempty"`
	MinWallNS int64   `json:"minWallNs,omitempty"`
	MinAllocs uint64  `json:"minAllocs,omitempty"`
	SimsPS    float64 `json:"simsPerSec,omitempty"`
}

// writeReportJSON renders the store as deterministic JSON (keys sorted,
// points in append order).
func writeReportJSON(w io.Writer, recs []runstore.Record) error {
	byKey := runstore.ByKey(recs)
	keys := make([]runstore.Key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	runstore.SortKeys(keys)
	rep := jsonReport{Schema: ReportSchema, Records: len(recs), Revs: runstore.Revs(recs)}
	for _, k := range keys {
		s := jsonSeries{Kind: k.Kind, Program: k.Program, Config: k.Config,
			Scheme: k.Scheme, Analysis: k.Analysis, FaultMode: k.FaultMode}
		for _, r := range byKey[k] {
			p := jsonPoint{Seq: r.Seq, Rev: r.Rev, Hash: r.Hash,
				Cycles: r.Guest.Cycles, DynInstrs: r.Guest.DynInstrs}
			if r.Host != nil && len(r.Host.Samples) > 0 {
				p.MinWallNS = r.Host.MinWallNS()
				p.MinAllocs = r.Host.MinAllocs()
				if r.Kind == runstore.KindSim {
					p.SimsPS = r.Host.SimsPerSec(r.Guest.Cycles)
				}
			}
			s.Points = append(s.Points, p)
		}
		rep.Series = append(rep.Series, s)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
