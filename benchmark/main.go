// Command benchmark is the fpint benchmark: four workloads that stand for
// what users of this reproduction do — re-run the Fig. 9/10 sweeps
// (detailed, or the sampled fast mode), compile many programs, and call
// the fpintd daemon — measured end to end and, in a separate traced run,
// layer by layer. It drives the repository's modules in-process through
// their exported entry points and times them from outside.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--trace-out DIR]
//
// -workload all (the default) runs every workload, each in a fresh child
// process. The report ends with one JSON line: the end-to-end metrics, or
// with -trace 1 the per-layer metrics. The exit code is 0 only when every
// output checked out; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fpint/internal/fperr"
)

func main() {
	err := benchMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	}
	os.Exit(fperr.ExitCode(err))
}

// runConfig is what one run of a workload is given.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(rc runConfig) (*result, error)
}

func workloads() []workload {
	return []workload{
		{"sweep-detailed", func(rc runConfig) (*result, error) { return runSweep("sweep-detailed", detailedSweep(), rc) }},
		{"sweep-fast", func(rc runConfig) (*result, error) { return runSweep("sweep-fast", fastSweep(), rc) }},
		{"compile-mix", func(rc runConfig) (*result, error) {
			return runCompileMix("compile-mix", defaultCompileMix(), rc)
		}},
		{"service-mix", func(rc runConfig) (*result, error) {
			return runServiceMix("service-mix", defaultServiceMix(), rc)
		}},
	}
}

// result is one workload run: the jobs attempted and failed, the
// end-to-end metrics of the untraced run, the per-layer metrics of the
// traced run, and guest outcomes that must repeat exactly.
type result struct {
	workload  string
	attempted int
	failures  []string
	metrics   []metric // end-to-end, untraced
	notes     []metric // printed for the reader, not in the result line
	layers    []metric // per-layer, traced runs only
	ledger    *ledger
	guest     []string
	trace     *tracer
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.attempted > 0 && len(r.failures) == 0 }

// resultLine is the last line of the report.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable report followed by the result line.
func (r *result) report(w io.Writer, traced bool) error {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed\n", r.workload, r.attempted, len(r.failures))
	for i, f := range r.failures {
		if i == 10 {
			fmt.Fprintf(w, "  fail: ... %d more\n", len(r.failures)-10)
			break
		}
		fmt.Fprintf(w, "  fail: %s\n", f)
	}
	fmt.Fprintln(w, "end-to-end:")
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %s\n", m)
	}
	fmt.Fprintf(w, "  %s\n", ratio("fail_frac", int64(len(r.failures)), int64(r.attempted)))
	for _, m := range r.notes {
		fmt.Fprintf(w, "  %s\n", m)
	}
	if len(r.guest) > 0 {
		fmt.Fprintf(w, "  guest_digest %s (%d jobs)\n", digest(r.guest), len(r.guest))
		for _, g := range sortedCopy(r.guest) {
			fmt.Fprintf(w, "    %s\n", g)
		}
	}
	if r.ledger != nil {
		fmt.Fprintln(w, "self-time ledger (traced run):")
		fmt.Fprint(w, r.ledger)
		fmt.Fprintln(w, "per-layer:")
		for _, m := range r.layers {
			fmt.Fprintf(w, "  %s\n", m)
		}
	}
	line := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: len(r.failures), Metrics: map[string]resultValue{}}
	ms := r.metrics
	if traced {
		ms = r.layers
	}
	for _, m := range ms {
		line.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func benchMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1: also run traced and print the per-layer metrics")
	traceOut := fs.String("trace-out", "", "directory to write <workload>.trace.json (Chrome trace) into")
	if err := fs.Parse(args); err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	if fs.NArg() > 0 {
		return fperr.New(fperr.ClassUsage, "unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fperr.New(fperr.ClassUsage, "-trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fperr.New(fperr.ClassUsage, "-seconds must be at least 1")
	}
	if *name == "all" {
		return runAll(args, w)
	}
	var wl *workload
	var names []string
	for _, c := range workloads() {
		names = append(names, c.name)
		if c.name == *name {
			wl = &c
		}
	}
	if wl == nil {
		return fperr.New(fperr.ClassUsage, "unknown workload %q (want one of %s, or all)", *name, strings.Join(names, ", "))
	}
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	r, err := wl.run(rc)
	if err != nil {
		return fperr.Wrapf(fperr.ClassInternal, err, "%s", wl.name)
	}
	if *traceOut != "" && r.trace != nil {
		if err := r.trace.write(filepath.Join(*traceOut, wl.name+".trace.json")); err != nil {
			return fperr.Wrap(fperr.ClassInput, err)
		}
	}
	if err := r.report(w, rc.trace); err != nil {
		return fperr.Wrap(fperr.ClassInternal, err)
	}
	if !r.correct() {
		return fperr.New(fperr.ClassInternal, "%s: %d of %d jobs failed", wl.name, len(r.failures), r.attempted)
	}
	return nil
}

// runAll runs every workload in a fresh child process of this binary, so
// that heap state and peak RSS do not carry from one workload to the next.
func runAll(args []string, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return fperr.Wrap(fperr.ClassInternal, err)
	}
	var failed []string
	for _, wl := range workloads() {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", wl.name)...)
		cmd.Stdout, cmd.Stderr = w, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", wl.name, err))
		}
	}
	if len(failed) > 0 {
		return fperr.New(fperr.ClassInternal, "%s", strings.Join(failed, "; "))
	}
	return nil
}

// peakRSS is the process's peak resident set size.
func peakRSS() metric {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return metric{Name: "peak_rss_mb", Unit: "MB", Refused: err.Error()}
	}
	return metric{Name: "peak_rss_mb", Value: float64(ru.Maxrss) / 1024, Unit: "MB"}
}

// digest is a short fingerprint of the guest outcomes, independent of the
// order jobs ran in, for comparing seeds and commits at a glance.
func digest(lines []string) string {
	h := fnv.New64a()
	for _, l := range sortedCopy(lines) {
		io.WriteString(h, l+"\n")
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

func sortedCopy(lines []string) []string {
	out := append([]string(nil), lines...)
	sort.Strings(out)
	return out
}
