// Package loadgen drives load — including a chaos mix — against a running
// fpintd and reports latency percentiles, throughput, shed rate, and
// cache hit rate as a deterministic fpint-load/v1 document. It is a
// library so the root acceptance test can run it in-process against an
// httptest server; cmd/fpiload is the CLI rim.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Job flavors in the generated mix. Each flavor exercises one slice of
// the daemon's robustness contract.
const (
	// FlavorOK is a valid job drawn from a small rotating set of
	// (endpoint, program, scheme, config) combinations — repeats hit the
	// artifact cache.
	FlavorOK = "ok"
	// FlavorMalformed is a request the daemon must 400: broken JSON or an
	// unknown scheme.
	FlavorMalformed = "malformed"
	// FlavorTrap is a program that faults at its profile run
	// (divide-by-zero) — 422.
	FlavorTrap = "trap"
	// FlavorOverBudget is a long-running job with a tiny step budget —
	// 422 via the step-limit watchdog.
	FlavorOverBudget = "over-budget"
	// FlavorPanic asks a chaos-mode daemon to panic mid-job; the recover
	// barrier must turn it into a 500, not a process death.
	FlavorPanic = "panic"
)

// okSrc is the valid-job program: a short arithmetic loop, heavy enough
// to exercise the partitioner, light enough for thousands of requests.
const okSrc = `
int acc;
int main() {
	for (int i = 1; i < 400; i++) {
		acc = acc + i * 3 - (i >> 1);
		if (acc > 100000) acc = acc - 100000;
	}
	return acc;
}
`

// trapSrc divides by a zero global during the frontend self-profile run.
const trapSrc = `
int z;
int main() { return 7 / z; }
`

// slowSrc runs long enough that a tiny step budget always trips.
const slowSrc = `
int acc;
int main() {
	for (int i = 0; i < 1000000; i++) acc = acc + i;
	return acc;
}
`

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Label replaces BaseURL in the report's target field (the acceptance
	// test uses "inprocess" so goldens do not embed ephemeral ports).
	Label string
	// Client defaults to a client with a 60 s timeout.
	Client *http.Client
	// Requests is the total request count (default 100).
	Requests int
	// Workers is the concurrency (default 8).
	Workers int
	// Seed drives the deterministic flavor/parameter choice per request
	// index; the same seed and config generate the same request sequence.
	Seed int64
	// Mix weights each flavor (default DefaultMix). Flavors with weight 0
	// are not sent.
	Mix map[string]int
	// Workloads optionally replaces the built-in ok-flavor program with
	// named bench workloads, rotated per request.
	Workloads []string
}

// DefaultMix is a mostly-valid mix with every chaos flavor represented.
func DefaultMix() map[string]int {
	return map[string]int{
		FlavorOK:         12,
		FlavorMalformed:  2,
		FlavorTrap:       2,
		FlavorOverBudget: 2,
		FlavorPanic:      2,
	}
}

// request is one generated request.
type request struct {
	flavor string
	path   string
	body   []byte
}

// okScheme/okConfig/okTiming rotate the valid-job parameter space so the
// run touches both Table 1 machine configurations and every scheme while
// still re-hitting each combination (cache hits).
var (
	okSchemes = []string{"none", "basic", "advanced", "balanced"}
	okConfigs = []string{"4way", "8way"}
	okTimings = []string{"functional", "fast", "detailed"}
)

// generate builds the deterministic request sequence.
func generate(cfg *Config) []request {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var flavors []string
	mix := cfg.Mix
	if mix == nil {
		mix = DefaultMix()
	}
	for _, f := range []string{FlavorOK, FlavorMalformed, FlavorTrap, FlavorOverBudget, FlavorPanic} {
		for i := 0; i < mix[f]; i++ {
			flavors = append(flavors, f)
		}
	}
	if len(flavors) == 0 {
		flavors = []string{FlavorOK}
	}

	reqs := make([]request, cfg.Requests)
	for i := range reqs {
		f := flavors[rng.Intn(len(flavors))]
		reqs[i] = buildRequest(f, i, rng, cfg)
	}
	return reqs
}

func buildRequest(flavor string, i int, rng *rand.Rand, cfg *Config) request {
	enc := func(v map[string]any) []byte {
		b, _ := json.Marshal(v)
		return b
	}
	switch flavor {
	case FlavorMalformed:
		if i%2 == 0 {
			return request{flavor, "/v1/compile", []byte(`{"source": "int main() { return 0; }"`)} // truncated JSON
		}
		return request{flavor, "/v1/simulate", enc(map[string]any{"source": "int main() { return 0; }", "scheme": "warp"})}
	case FlavorTrap:
		return request{flavor, "/v1/simulate", enc(map[string]any{"source": trapSrc, "timing": "functional"})}
	case FlavorOverBudget:
		return request{flavor, "/v1/simulate", enc(map[string]any{"source": slowSrc, "timing": "functional", "stepBudget": 1000})}
	case FlavorPanic:
		return request{flavor, "/v1/compile", enc(map[string]any{"panic": true})}
	}
	// FlavorOK: rotate endpoint and parameters.
	body := map[string]any{"scheme": okSchemes[rng.Intn(len(okSchemes))]}
	if len(cfg.Workloads) > 0 {
		body["workload"] = cfg.Workloads[rng.Intn(len(cfg.Workloads))]
	} else {
		body["source"] = okSrc
	}
	path := "/v1/compile"
	switch rng.Intn(3) {
	case 1:
		path = "/v1/partition"
	case 2:
		path = "/v1/simulate"
		body["config"] = okConfigs[rng.Intn(len(okConfigs))]
		body["timing"] = okTimings[rng.Intn(len(okTimings))]
	}
	return request{FlavorOK, path, enc(body)}
}

// respBody is the slice of the daemon response the loadgen reads.
type respBody struct {
	Class  string `json:"class"`
	Cached bool   `json:"cached"`
}

// Run executes the configured load and aggregates the report. The request
// sequence is deterministic; wall-clock fields are not (Normalize zeroes
// them for golden comparison).
func Run(cfg Config) (*LoadReport, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 100
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	reqs := generate(&cfg)

	type outcome struct {
		flavor    string
		status    int
		class     string
		cached    bool
		transport bool
		latency   time.Duration
	}
	outcomes := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				t0 := time.Now()
				resp, err := client.Post(cfg.BaseURL+r.path, "application/json", bytes.NewReader(r.body))
				lat := time.Since(t0)
				o := outcome{flavor: r.flavor, latency: lat}
				if err != nil {
					o.transport = true
				} else {
					var body respBody
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					json.Unmarshal(data, &body)
					o.status = resp.StatusCode
					o.class = body.Class
					o.cached = body.Cached
					if o.class == "" {
						o.class = "unparsed"
					}
				}
				outcomes[i] = o
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Schema:  LoadReportSchema,
		Target:  cfg.BaseURL,
		Workers: cfg.Workers,
	}
	if cfg.Label != "" {
		rep.Target = cfg.Label
	}
	mixCount := map[string]int64{}
	outcomeCount := map[[2]string]int64{}
	statusOf := map[[2]string]int{}
	var lats []time.Duration
	for _, o := range outcomes {
		mixCount[o.flavor]++
		if o.transport {
			rep.TransportErrors++
			continue
		}
		rep.Requests++
		lats = append(lats, o.latency)
		k := [2]string{fmt.Sprintf("%03d", o.status), o.class}
		outcomeCount[k]++
		statusOf[k] = o.status
		if o.status == http.StatusServiceUnavailable {
			rep.Shed++
		}
		if o.cached {
			rep.CacheHits++
		}
	}
	for f, n := range mixCount {
		rep.Mix = append(rep.Mix, LoadMixRow{Flavor: f, Count: n})
	}
	for k, n := range outcomeCount {
		rep.Outcomes = append(rep.Outcomes, LoadOutcomeRow{Status: statusOf[k], Class: k[1], Count: n})
	}
	if rep.Requests > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
		rep.CacheHitRate = float64(rep.CacheHits) / float64(rep.Requests)
	}
	rep.ElapsedNS = elapsed.Nanoseconds()
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) int64 {
			idx := int(p * float64(len(lats)-1))
			return lats[idx].Nanoseconds()
		}
		rep.Latency = LoadLatency{
			P50NS: pct(0.50),
			P95NS: pct(0.95),
			P99NS: pct(0.99),
			MaxNS: lats[len(lats)-1].Nanoseconds(),
		}
	}
	rep.Sort()
	return rep, nil
}
