package loadgen

import (
	"encoding/json"
	"io"
	"sort"
)

// LoadReportSchema identifies the JSON layout fpiload emits. Bump it when
// the shape of LoadReport or any row type changes incompatibly; the
// service acceptance test pins the (normalized) encoding byte-for-byte.
const LoadReportSchema = "fpint-load/v1"

// LoadReport is the machine-readable result of one load-generator run
// against fpintd: the request mix that was sent, latency percentiles,
// throughput, and the robustness headlines — shed rate, cache hit rate,
// and how many responses arrived per status/class. Wall-clock-derived
// fields are segregated so Normalize can zero them for golden
// comparisons while the deterministic outcome counts stay pinned.
type LoadReport struct {
	Schema  string `json:"schema"`
	Target  string `json:"target"` // base URL, or "inprocess" for the test harness
	Workers int    `json:"workers"`

	// Mix records how many requests of each job flavor were sent, sorted
	// by name. The flavors are the loadgen's own vocabulary (ok, malformed,
	// trap, panic, overBudget, ...), not the daemon's.
	Mix []LoadMixRow `json:"mix"`

	Requests        int64 `json:"requests"`        // responses received (any status)
	TransportErrors int64 `json:"transportErrors"` // connection failures, not HTTP errors

	// Outcomes counts responses per (HTTP status, error class) pair,
	// sorted by status then class. Success and degraded both arrive as
	// 200 and are told apart by the class column.
	Outcomes []LoadOutcomeRow `json:"outcomes"`

	Shed         int64   `json:"shed"` // 503 responses (admission refused)
	ShedRate     float64 `json:"shedRate"`
	CacheHits    int64   `json:"cacheHits"` // responses served from the artifact cache
	CacheHitRate float64 `json:"cacheHitRate"`

	// Wall-clock section: nondeterministic run to run, zeroed by Normalize.
	ElapsedNS     int64       `json:"elapsedNs"`
	ThroughputRPS float64     `json:"throughputRps"`
	Latency       LoadLatency `json:"latency"`
}

// LoadMixRow is one job flavor's share of the request mix.
type LoadMixRow struct {
	Flavor string `json:"flavor"`
	Count  int64  `json:"count"`
}

// LoadOutcomeRow counts responses carrying one (status, class) pair.
type LoadOutcomeRow struct {
	Status int    `json:"status"`
	Class  string `json:"class"`
	Count  int64  `json:"count"`
}

// LoadLatency carries per-request latency percentiles in nanoseconds.
type LoadLatency struct {
	P50NS int64 `json:"p50Ns"`
	P95NS int64 `json:"p95Ns"`
	P99NS int64 `json:"p99Ns"`
	MaxNS int64 `json:"maxNs"`
}

// Sort orders the mix and outcome rows canonically so two runs with the
// same outcomes encode identically regardless of arrival order.
func (r *LoadReport) Sort() {
	sort.Slice(r.Mix, func(i, j int) bool { return r.Mix[i].Flavor < r.Mix[j].Flavor })
	sort.Slice(r.Outcomes, func(i, j int) bool {
		if r.Outcomes[i].Status != r.Outcomes[j].Status {
			return r.Outcomes[i].Status < r.Outcomes[j].Status
		}
		return r.Outcomes[i].Class < r.Outcomes[j].Class
	})
}

// WriteJSON encodes the report with two-space indentation; rows are
// sorted first so the document is deterministic.
func (r *LoadReport) WriteJSON(w io.Writer) error {
	r.Sort()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
