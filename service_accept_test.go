package fpint

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fpint/internal/obs"
	"fpint/internal/service"
	"fpint/internal/service/loadgen"
)

// startService builds a daemon core plus listener; cleanup closes the
// listener and drains the server.
func startService(t *testing.T, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	svc := service.New(opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Drain()
	})
	return svc, ts
}

// normalizeLoadReport zeroes the wall-clock-derived fields (elapsed time,
// throughput, latency percentiles) and sorts the rows, so two runs that
// sent the same mix and saw the same outcomes encode byte-identically.
func normalizeLoadReport(r *loadgen.LoadReport) {
	r.ElapsedNS = 0
	r.ThroughputRPS = 0
	r.Latency = loadgen.LoadLatency{}
	r.Sort()
}

// TestServiceLoadgenGolden drives the deterministic slice of the load
// harness — one loadgen worker, fixed seed — through a real HTTP
// round-trip and pins the normalized fpint-load/v1 document byte for
// byte. Sequential execution makes every outcome (statuses, cache hits,
// mix) reproducible; normalizeLoadReport zeroes the wall-clock fields. Regenerate
// with `go test -run TestServiceLoadgenGolden -update .`.
func TestServiceLoadgenGolden(t *testing.T) {
	_, ts := startService(t, service.Options{Workers: 2, Chaos: true})
	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:  ts.URL,
		Label:    "inprocess",
		Requests: 60,
		Workers:  1,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	normalizeLoadReport(rep)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("encode report: %v", err)
	}
	compareGoldenFile(t, filepath.Join("testdata", "golden", "fpiload.json"), buf.String())
}

// TestServiceLoadgenChaos is the in-process load/chaos acceptance run:
// concurrent clients, every chaos flavor in the mix (panics, blown
// budgets, malformed jobs), against a daemon that must survive all of it.
// Run under -race in CI, this is the robustness headline: zero transport
// errors (no process death), a warm cache, recovered panics, and a
// healthy endpoint afterwards.
func TestServiceLoadgenChaos(t *testing.T) {
	_, ts := startService(t, service.Options{Workers: 4, Chaos: true})
	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:  ts.URL,
		Requests: 150,
		Workers:  8,
		Seed:     2,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if rep.TransportErrors != 0 {
		t.Errorf("transport errors = %d, want 0 (a dropped connection means a job killed the daemon)", rep.TransportErrors)
	}
	if rep.Requests != 150 {
		t.Errorf("responses = %d, want 150", rep.Requests)
	}
	if rep.CacheHits == 0 {
		t.Error("cache hit rate is zero; repeated identical jobs are not being served from the artifact cache")
	}

	// Every chaos flavor must have produced its contracted status.
	wantStatus := map[int]string{200: "none", 400: "usage", 422: "input", 500: "internal"}
	seen := map[int]bool{}
	for _, o := range rep.Outcomes {
		seen[o.Status] = true
		if want, ok := wantStatus[o.Status]; ok && o.Class != want && !(o.Status == 200 && o.Class == "degraded") {
			t.Errorf("status %d carried class %q, want %q", o.Status, o.Class, want)
		}
	}
	for status := range wantStatus {
		if !seen[status] {
			t.Errorf("no response with status %d; the chaos mix did not exercise that path", status)
		}
	}

	// The daemon is still healthy after the chaos run.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after chaos: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz after chaos = %d, want 200", resp.StatusCode)
	}

	// /statsz keeps its key set stable regardless of traffic — the
	// monitoring contract. Values vary with interleaving; the keys are
	// pinned as a golden. Regenerate with -update.
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	defer resp.Body.Close()
	var doc struct {
		Counters   map[string]json.Number `json:"counters"`
		Gauges     map[string]json.Number `json:"gauges"`
		Histograms map[string]any         `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	var keys []string
	for k := range doc.Counters {
		keys = append(keys, "counter "+k)
	}
	for k := range doc.Gauges {
		keys = append(keys, "gauge "+k)
	}
	sort.Strings(keys)
	compareGoldenFile(t, filepath.Join("testdata", "golden", "fpintd.statsz.keys.txt"), strings.Join(keys, "\n")+"\n")

	// And the counters tell the story the report told.
	if doc.Counters[obs.PrefixService+obs.MetricServicePanicsRecovered] == "0" {
		t.Error("statsz shows zero recovered panics after a chaos run that sent panic jobs")
	}
}

// compareGoldenFile compares got against the golden file, rewriting it
// under -update.
func compareGoldenFile(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
