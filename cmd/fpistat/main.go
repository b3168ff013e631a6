// Command fpistat is the performance observatory's front door: it records
// runs into the append-only run-record store (internal/obs/runstore),
// mines the store for trends, diffs revisions, renders reports, and gates
// regressions.
//
// Usage:
//
//	fpistat record [-store runs.jsonl] [-scheme advanced] [-analysis on]
//	               [-repeat 3] [-rev REV] [-label L] file.c...   # record source files (both Table 1 configs)
//	fpistat record -suite                                        # record the Fig. 9/10 and §7.5 cycle jobs
//	fpistat record -gobench bench.txt                            # import `go test -bench -benchmem` results
//	fpistat trend  [-store runs.jsonl]                           # per-workload/per-scheme time series
//	fpistat diff   [-store runs.jsonl] A B                       # guest+host deltas between two revisions or record hashes
//	fpistat report [-store runs.jsonl] [-md out.md] [-json out.json]  # deterministic markdown + JSON report
//	fpistat gate   [-store runs.jsonl] -baseline base.jsonl      # gate latest records against another store
//	fpistat gate   [-store runs.jsonl] -baseline-rev REV         # ... against the records taken at REV
//	fpistat gate   -store cur.jsonl -baseline BASELINE_RUNS.jsonl  # ... cycle jobs from record -suite vs the checked-in baseline
//	fpistat phasediff A.json B.json                              # compare two fpisim -timeline-json runs phase by phase
//
// Records wrap the deterministic guest-side results (the closed cycle
// ledger) in an envelope with the git revision, machine config, scheme,
// and analysis/fault mode, content-addressed by a SHA-256 hash that
// excludes host noise: recording the same source at the same revision
// twice yields identical hashes. Host-side self-metrics (wall time,
// allocations, GC; see internal/obs/hostmetrics) ride along outside the
// hash and are gated with noise-aware min/median thresholds, while guest
// cycles are gated exactly.
//
// Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error,
// 5 a gate found a performance regression.
package main

import (
	"fmt"
	"io"
	"os"

	"fpint/internal/fperr"
)

func main() {
	err := fpistatMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpistat: %v\n", err)
	}
	os.Exit(fperr.ExitCode(err))
}

// defaultStore is where records land unless -store says otherwise.
const defaultStore = ".fpint/runs.jsonl"

func fpistatMain(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fperr.New(fperr.ClassUsage, "usage: fpistat <record|trend|diff|report|gate|phasediff> [flags]")
	}
	switch args[0] {
	case "record":
		return cmdRecord(args[1:], stdout)
	case "trend":
		return cmdTrend(args[1:], stdout)
	case "diff":
		return cmdDiff(args[1:], stdout)
	case "report":
		return cmdReport(args[1:], stdout)
	case "gate":
		return cmdGate(args[1:], stdout)
	case "phasediff":
		return cmdPhasediff(args[1:], stdout)
	case "help", "-h", "-help", "--help":
		fmt.Fprintln(stdout, "usage: fpistat <record|trend|diff|report|gate|phasediff> [flags]; see `go doc fpint/cmd/fpistat`")
		return nil
	}
	return fperr.New(fperr.ClassUsage, "unknown subcommand %q (want record, trend, diff, report, gate, or phasediff)", args[0])
}

// writeTo streams enc to path, with "-" meaning the command's stdout.
func writeTo(path string, stdout io.Writer, enc func(w io.Writer) error) error {
	if path == "-" {
		return enc(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fperr.Wrap(fperr.ClassInput, err)
	}
	if err := enc(f); err != nil {
		f.Close()
		return fperr.Wrap(fperr.ClassInput, err)
	}
	return fperr.Wrap(fperr.ClassInput, f.Close())
}
