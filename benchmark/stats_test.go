package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending, so percentile must sort
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		v    []float64
		p    float64
		want float64
	}{
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2}, // rank ceil(2) = 2nd smallest
		{seq(10), 50, 5},
		{seq(100), 50, 50},
		{seq(100), 90, 90},
		{seq(1000), 50, 500},
		{seq(1000), 99, 990},
		{seq(2000), 99, 1980},
	}
	for _, c := range cases {
		got, err := percentile(c.v, c.p)
		if err != nil {
			t.Fatalf("p%g of %d samples: %v", c.p, len(c.v), err)
		}
		if got != c.want {
			t.Errorf("p%g of %d samples = %g, want %g", c.p, len(c.v), got, c.want)
		}
	}
}

// TestTailPercentileNeedsTenBeyond pins the refusal rule: p99 needs ten
// samples beyond its rank, so 999 samples are refused and 1000 are not.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples was reported; want refused")
	}
	if _, err := percentile(seq(1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := percentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 samples was reported; want refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("median of no samples was reported")
	}
	m := latencyMetrics(seq(500))
	if m[0].Refused != "" || m[1].Refused == "" {
		t.Errorf("latencyMetrics(500 samples): p50 refused=%q, p99 refused=%q; want p50 only", m[0].Refused, m[1].Refused)
	}
	if !strings.HasPrefix(m[1].String(), "latency_p99_ms refused (") {
		t.Errorf("refused p99 prints %q", m[1])
	}
}

func TestRatiosPrintTheirBase(t *testing.T) {
	cases := []struct {
		m    metric
		want string
	}{
		{ratio("fail_frac", 0, 1000), "fail_frac 0 (0/1000)"},
		{ratio("hit_frac", 1, 4), "hit_frac 0.25 (1/4)"},
		{ratio("empty_frac", 0, 0), "empty_frac 0 (0/0)"},
		{metric{Name: "latency_p50_ms", Value: 5.25, Unit: "ms", N: 3}, "latency_p50_ms 5.25 ms (n=3)"},
		{metric{Name: "setup_s", Value: 0.123456, Unit: "s", N: 5}, "setup_s 0.1235 s (n=5)"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func TestGeomeanSpeedup(t *testing.T) {
	got := geomeanSpeedupPct([]int64{200, 100}, []int64{100, 100})
	if want := 100 * (math.Sqrt2 - 1); math.Abs(got-want) > 1e-9 {
		t.Errorf("geomean speedup = %g, want %g", got, want)
	}
}
