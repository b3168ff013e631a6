// Package hostmetrics measures the simulator's own Go-level cost: wall
// time, heap allocation deltas, and GC activity around a region of work,
// plus the derived simulated-cycles-per-second throughput number.
//
// Guest-side telemetry (cycle ledgers, stall causes, per-PC profiles) says
// what the modeled machine did; hostmetrics says what it cost *us* to model
// it. The numbers are inherently noisy — they depend on the machine, the
// scheduler, and the GC — so they are treated as second-class everywhere:
// excluded from run-record content hashes, compared with min/median
// estimators over repeated samples, and gated with percentage thresholds
// rather than exact equality. This package is the baseline instrument the
// ROADMAP's "allocation-free event-driven core" refactor will be measured
// against.
//
// Like the rest of internal/obs it depends only on the standard library.
package hostmetrics

import (
	"fmt"
	"runtime"
	"time"

	"fpint/internal/obs"
)

// Sample is one observation of the host-side cost of a region of work.
// All fields are deltas across the region except where noted.
type Sample struct {
	// WallNS is the elapsed wall-clock time in nanoseconds.
	WallNS int64 `json:"wallNs"`
	// Allocs is the number of heap objects allocated (Mallocs delta).
	Allocs uint64 `json:"allocs"`
	// Bytes is the total heap bytes allocated (TotalAlloc delta).
	Bytes uint64 `json:"bytes"`
	// GCPauseNS is the cumulative stop-the-world pause time in nanoseconds.
	GCPauseNS uint64 `json:"gcPauseNs"`
	// GCCycles is the number of completed GC cycles.
	GCCycles uint32 `json:"gcCycles"`
}

// Measure runs f once and returns the host-side cost of the call.
func Measure(f func()) Sample {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return Sample{
		WallNS:    wall.Nanoseconds(),
		Allocs:    after.Mallocs - before.Mallocs,
		Bytes:     after.TotalAlloc - before.TotalAlloc,
		GCPauseNS: after.PauseTotalNs - before.PauseTotalNs,
		GCCycles:  after.NumGC - before.NumGC,
	}
}

// SimsPerSec converts a simulated-cycle count and a wall time into the
// throughput headline number (simulated cycles per host second).
func SimsPerSec(cycles int64, wallNS int64) float64 {
	if wallNS <= 0 || cycles <= 0 {
		return 0
	}
	return float64(cycles) / (float64(wallNS) / 1e9)
}

// MinWallNS returns the smallest wall time over the samples — the standard
// noise-robust estimator for "how fast can this go" (everything that makes
// a run slower than its best is interference).
func MinWallNS(samples []Sample) int64 {
	var min int64 = -1
	for _, s := range samples {
		if min < 0 || s.WallNS < min {
			min = s.WallNS
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// MinAllocs returns the smallest allocation count over the samples.
// Allocation counts are nearly deterministic (map growth and GC timing
// contribute small jitter), so the min is a tight floor.
func MinAllocs(samples []Sample) uint64 {
	first := true
	var min uint64
	for _, s := range samples {
		if first || s.Allocs < min {
			min = s.Allocs
			first = false
		}
	}
	return min
}

// MinBytes returns the smallest allocated-bytes count over the samples.
func MinBytes(samples []Sample) uint64 {
	first := true
	var min uint64
	for _, s := range samples {
		if first || s.Bytes < min {
			min = s.Bytes
			first = false
		}
	}
	return min
}

// Env describes the host environment a sample set was taken on. It travels
// with recorded host metrics so trend readers can tell a code change from a
// machine change; like the samples it is excluded from content hashes.
type Env struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCpu"`
}

// CurrentEnv captures the running process's environment.
func CurrentEnv() Env {
	return Env{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// String renders a sample as a compact human-readable line.
func (s Sample) String() string {
	return fmt.Sprintf("wall=%s allocs=%d bytes=%s gc=%d pause=%s",
		time.Duration(s.WallNS), s.Allocs, formatBytes(s.Bytes),
		s.GCCycles, time.Duration(int64(s.GCPauseNS)))
}

// formatBytes renders a byte count with a binary-prefix unit.
func formatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// AddTo exports the sample into a metrics registry under the given prefix
// (conventionally obs.PrefixHost). Host metrics are nondeterministic, so
// callers must opt in — mixing them into an otherwise byte-stable document
// breaks its golden property.
func (s Sample) AddTo(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix + obs.MetricHostWallNS).Set(float64(s.WallNS))
	reg.Gauge(prefix + obs.MetricHostAllocs).Set(float64(s.Allocs))
	reg.Gauge(prefix + obs.MetricHostBytes).Set(float64(s.Bytes))
	reg.Gauge(prefix + obs.MetricHostGCPauseNS).Set(float64(s.GCPauseNS))
	reg.Gauge(prefix + obs.MetricHostGCCycles).Set(float64(s.GCCycles))
}
