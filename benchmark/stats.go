package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: with fewer, "p99" would only be the largest sample renamed.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of v (0 < p ≤ 100):
// the smallest sample with at least p% of the samples at or below it. A
// tail percentile (p > 50) is refused unless at least minBeyond samples lie
// beyond its rank, so p99 needs 1000 samples.
func percentile(v []float64, p float64) (float64, error) {
	n := len(v)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", p)
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("p%g: percentile out of range", p)
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g refused: %d samples leave %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the nearest-rank p50, which always exists for a non-empty set.
func median(v []float64) float64 {
	m, _ := percentile(v, 50)
	return m
}

// metric is one printed number. N is the sample count behind a timing
// statistic (0 when the value is not a statistic over samples); Base is
// "numerator/denominator" for a ratio, so every ratio is printed with the
// counts it was computed from.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Base  string
	// Refused holds the reason a statistic could not be reported; Value is
	// then meaningless and the metric is printed for the human reader only.
	Refused string
}

// ratio builds a ratio metric printed with its base.
func ratio(name string, num, den int64) metric {
	v := 0.0
	if den > 0 {
		v = float64(num) / float64(den)
	}
	return metric{Name: name, Value: v, Unit: "ratio", Base: fmt.Sprintf("%d/%d", num, den)}
}

// String renders the metric for the human-readable report.
func (m metric) String() string {
	if m.Refused != "" {
		return fmt.Sprintf("%s refused (%s)", m.Name, m.Refused)
	}
	s := fmt.Sprintf("%s %s %s", m.Name, fmtValue(m.Value), m.Unit)
	if m.Unit == "ratio" {
		s = fmt.Sprintf("%s %s", m.Name, fmtValue(m.Value))
	}
	if m.Base != "" {
		s += " (" + m.Base + ")"
	}
	if m.N > 0 {
		s += fmt.Sprintf(" (n=%d)", m.N)
	}
	return s
}

// fmtValue prints a value with four significant digits for reading; the
// JSON result line carries every digit.
func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// latencyMetrics reports a set of per-job latencies as the median and the
// p99 tail; the tail is refused below 1000 samples.
func latencyMetrics(lat []float64) []metric {
	out := []metric{{Name: "latency_p50_ms", Value: median(lat), Unit: "ms", N: len(lat)}}
	p99 := metric{Name: "latency_p99_ms", Unit: "ms", N: len(lat)}
	v, err := percentile(lat, 99)
	if err != nil {
		p99.Refused = err.Error()
	}
	p99.Value = v
	return append(out, p99)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// geomeanSpeedupPct is the geometric-mean speedup, in percent, of the
// second cycle count over the first across pairs (base[i] / new[i] − 1).
func geomeanSpeedupPct(base, improved []int64) float64 {
	if len(base) == 0 || len(base) != len(improved) {
		return 0
	}
	sum := 0.0
	for i := range base {
		sum += math.Log(float64(base[i]) / float64(improved[i]))
	}
	return 100 * (math.Exp(sum/float64(len(base))) - 1)
}
