package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"fpint/internal/codegen"
	"fpint/internal/uarch"
)

// tiny are the four workloads at job counts small enough for go test; the
// code paths are the ones the full-size runs take.
var tiny = []workload{
	{"sweep-detailed", func(rc runConfig) (*result, error) {
		return runSweep("sweep-detailed", sweepSpec{
			programs: []string{"li"},
			schemes:  []codegen.Scheme{codegen.SchemeNone, codegen.SchemeAdvanced},
			configs:  []uarch.Config{uarch.Config4Way()},
			setups:   1, maxPasses: 1,
		}, rc)
	}},
	{"sweep-fast", func(rc runConfig) (*result, error) {
		return runSweep("sweep-fast", sweepSpec{
			programs: []string{"li"},
			schemes:  []codegen.Scheme{codegen.SchemeAdvanced},
			configs:  []uarch.Config{uarch.Config8Way()},
			fast:     true, setups: 1, maxPasses: 1,
		}, rc)
	}},
	{"compile-mix", func(rc runConfig) (*result, error) {
		return runCompileMix("compile-mix", compileMixSpec{pool: 18, setups: 1, maxJobs: 18}, rc)
	}},
	{"service-mix", func(rc runConfig) (*result, error) {
		return runServiceMix("service-mix", serviceMixSpec{pool: 40, clients: 2, workers: 2, setups: 1, warmups: 2, maxReqs: 40}, rc)
	}},
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must honour.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// lastLine parses the result line a report ends with.
func lastLine(t *testing.T, r *result, traced bool) resultLine {
	t.Helper()
	var buf bytes.Buffer
	if err := r.report(&buf, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line
}

// TestSmoke runs every workload, tiny, with tracing, and checks the
// contract of its output: the metrics BENCHMARK.json lists, with their
// units, no failed job, and a self-time ledger that closes.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if strings.Join(listed, ",") != strings.Join(names, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", listed, names)
	}

	for _, w := range tiny {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.run(runConfig{seed: 1, seconds: time.Minute, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() {
				t.Fatalf("%d of %d jobs failed: %v", len(r.failures), r.attempted, r.failures)
			}
			for _, c := range []struct {
				traced bool
				want   []struct{ Name, Unit string }
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				line := lastLine(t, r, c.traced)
				if !line.Correct || line.Failed != 0 || line.Attempted != r.attempted {
					t.Errorf("result line %+v", line)
				}
				if len(line.Metrics) != len(c.want) {
					t.Errorf("traced=%v: %d metrics printed, BENCHMARK.json lists %d", c.traced, len(line.Metrics), len(c.want))
				}
				for _, m := range c.want {
					got, ok := line.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s printed as %+v (present %v), want unit %s", c.traced, m.Name, got, ok, m.Unit)
					}
					if !nameRE.MatchString(m.Name) {
						t.Errorf("metric name %q", m.Name)
					}
				}
			}
			for _, m := range r.metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %g; end-to-end metrics are never 0", m.Name, m.Value)
				}
			}

			l := r.ledger
			var sum time.Duration
			known := map[string]bool{}
			for _, row := range ledgerRows {
				known[row] = true
			}
			for row, d := range l.rows {
				if !known[row] || d < 0 {
					t.Errorf("ledger row %q = %v", row, d)
				}
				sum += d
			}
			if l.total <= 0 || l.jobs != len(r.trace.jobs) {
				t.Fatalf("ledger total %v over %d jobs", l.total, l.jobs)
			}
			if diff := sum - l.total; diff < -l.total/100 || diff > l.total/100 {
				t.Errorf("ledger open: rows sum to %v, jobs to %v", sum, l.total)
			}
			evs := r.trace.events()
			if len(evs) == 0 {
				t.Error("no trace events")
			}
		})
	}
}
