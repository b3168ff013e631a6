package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"fpint/internal/analysis"
	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/fperr"
	"fpint/internal/obs/hostmetrics"
	"fpint/internal/obs/runstore"
	"fpint/internal/uarch"
)

// cmdRecord measures programs and appends run records to the store. Three
// sources of records:
//
//   - source files on the command line: each is compiled under the
//     requested scheme and run on both Table 1 machine configurations,
//     -repeat times, so every record carries repeated host samples for the
//     gate's noise estimators;
//   - -suite: the cycle-bearing job set (bench.CycleJobs — every run behind
//     Figures 9/10 and §7.5, under none, basic and advanced). This is the
//     set BASELINE_RUNS.jsonl pins; -scheme and -analysis apply to source
//     files only;
//   - -gobench FILE: `go test -bench -benchmem` output, imported as
//     host-metrics-only records (the testing.B benchmarks in
//     internal/uarch and internal/codegen are the intended feed).
//
// Source files and -suite jobs are measured by one bench.Suite, the one
// fpibench uses, put in fast mode by -fast.
func cmdRecord(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fpistat record", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		storePath    = fs.String("store", defaultStore, "append-only run-record store (JSONL)")
		schemeName   = fs.String("scheme", "advanced", "partitioning scheme for source files: "+strings.Join(codegen.SchemeNames(), ", "))
		analysisMode = fs.String("analysis", "on", "consult the alias/value-range analyses for source files: on or off")
		repeat       = fs.Int("repeat", 3, "timed runs per record (host samples for min/median noise estimation)")
		rev          = fs.String("rev", "", "revision to stamp records with (default: resolved from .git)")
		label        = fs.String("label", "", "free-form annotation (excluded from the content hash)")
		suite        = fs.Bool("suite", false, "record the Fig. 9/10 and §7.5 cycle jobs (the set BASELINE_RUNS.jsonl pins)")
		gobench      = fs.String("gobench", "", "import `go test -bench` output from the given file (\"-\" for stdin)")
		fast         = fs.Bool("fast", false, "measure with the sampled-timing fast mode; records are stamped timingMode=fast and gate only against other fast records")
	)
	if err := fs.Parse(args); err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	if *repeat < 1 {
		return fperr.New(fperr.ClassUsage, "-repeat must be at least 1")
	}
	sch, err := codegen.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	useAnalysis, err := analysis.ParseOnOff(*analysisMode)
	if err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	if *rev == "" {
		*rev = runstore.GitRevision(".")
	}
	if !*suite && *gobench == "" && fs.NArg() == 0 {
		return fperr.New(fperr.ClassUsage, "nothing to record: give source files, -suite, or -gobench FILE")
	}

	store := runstore.Open(*storePath)
	now := time.Now().UTC().Format(time.RFC3339)
	timingMode := runstore.TimingDetailed
	if *fast {
		timingMode = runstore.TimingFast
	}
	var recs []runstore.Record
	s := bench.NewSuite()
	if *fast {
		s.SetFast(uarch.DefaultSampleConfig())
	}
	record := func(w *bench.Workload, sch codegen.Scheme, analysis bool, cfg uarch.Config) error {
		guest, host, err := s.Record(w, sch, analysis, cfg, *repeat)
		if err != nil {
			return err
		}
		recs = append(recs, runstore.Record{
			Kind: runstore.KindSim, Rev: *rev, Program: w.Name,
			SourceSHA: runstore.SourceHash([]byte(w.Src)),
			Config:    cfg.Name, Scheme: sch.String(), Analysis: analysis,
			TimingMode: timingMode,
			Guest:      guest, Host: host, CreatedAt: now, Label: *label,
		})
		return nil
	}

	for _, file := range fs.Args() {
		src, err := os.ReadFile(file)
		if err != nil {
			return fperr.Wrap(fperr.ClassInput, err)
		}
		w := &bench.Workload{Name: strings.TrimSuffix(filepath.Base(file), ".c"), Src: string(src)}
		for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
			if err := record(w, sch, useAnalysis, cfg); err != nil {
				return fperr.Wrap(fperr.ClassInput, err)
			}
		}
	}

	if *suite {
		for _, j := range bench.CycleJobs() {
			if err := record(&j.Workload, j.Scheme, false, j.Config); err != nil {
				return fperr.Wrap(fperr.ClassInternal, err)
			}
		}
	}

	if *gobench != "" {
		gb, err := readGoBench(*gobench)
		if err != nil {
			return err
		}
		for i := range gb {
			gb[i].Rev, gb[i].CreatedAt, gb[i].Label = *rev, now, *label
		}
		recs = append(recs, gb...)
	}

	for i := range recs {
		recs[i].Seal()
	}
	if err := store.Append(recs...); err != nil {
		return fperr.Wrap(fperr.ClassInternal, err)
	}
	for i := range recs {
		r := &recs[i]
		line := fmt.Sprintf("recorded %s %s rev=%s", r.ShortHash(), r.Key(), r.Rev)
		if r.Kind == runstore.KindSim {
			line += fmt.Sprintf(" cycles=%d", r.Guest.Cycles)
		}
		if r.Host != nil {
			line += fmt.Sprintf(" wall=%s", time.Duration(r.Host.MinWallNS()))
			if r.Kind == runstore.KindSim {
				line += fmt.Sprintf(" sims/sec=%.3g", r.Host.SimsPerSec(r.Guest.Cycles))
			}
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "%d record(s) appended to %s\n", len(recs), *storePath)
	return nil
}

// goBenchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkTimingSimulator-8   20   61234567 ns/op   6211077 sim-insts/s   20019144 B/op   55 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped from the name. The measurements
// after the iteration count are value/unit pairs in any order: ns/op is
// required, B/op and allocs/op are optional (-benchmem), and custom
// metrics (b.ReportMetric) may sit anywhere among them.
var goBenchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// readGoBench parses benchmark result lines into host-metrics-only records.
func readGoBench(path string) ([]runstore.Record, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, fperr.Wrap(fperr.ClassInput, err)
		}
		defer f.Close()
		r = f
	}
	recs, err := parseGoBench(r)
	if err != nil {
		return nil, fperr.Wrap(fperr.ClassInput, err)
	}
	if len(recs) == 0 {
		return nil, fperr.New(fperr.ClassInput, "%s: no benchmark result lines found", path)
	}
	return recs, nil
}

// parseGoBench extracts one record per benchmark line. Multiple lines for
// the same benchmark (repeated -count runs) merge into one record with one
// host sample each, which is exactly what the gate's min/median estimators
// want.
func parseGoBench(r io.Reader) ([]runstore.Record, error) {
	env := hostmetrics.CurrentEnv()
	byName := make(map[string]*runstore.Record)
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := goBenchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := m[1]
		var sample hostmetrics.Sample
		hasNs := false
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, unit := fields[i], fields[i+1]
			var err error
			switch unit {
			case "ns/op":
				var ns float64
				ns, err = strconv.ParseFloat(v, 64)
				sample.WallNS, hasNs = int64(ns), true
			case "B/op":
				sample.Bytes, err = strconv.ParseUint(v, 10, 64)
			case "allocs/op":
				sample.Allocs, err = strconv.ParseUint(v, 10, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("bad %s in %q: %w", unit, sc.Text(), err)
			}
		}
		if !hasNs {
			continue
		}
		rec, ok := byName[name]
		if !ok {
			rec = &runstore.Record{
				Kind: runstore.KindGoBench, Program: name,
				Config: "host", Scheme: "go",
				Host: &runstore.Host{Env: env},
			}
			byName[name] = rec
			order = append(order, name)
		}
		rec.Host.Samples = append(rec.Host.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]runstore.Record, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out, nil
}
