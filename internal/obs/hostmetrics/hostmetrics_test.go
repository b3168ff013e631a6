package hostmetrics

import (
	"bytes"
	"strings"
	"testing"

	"fpint/internal/obs"
)

func TestMeasureCapturesWorkDeltas(t *testing.T) {
	var sink [][]byte
	s := Measure(func() {
		for i := 0; i < 64; i++ {
			sink = append(sink, make([]byte, 4096))
		}
	})
	_ = sink
	if s.WallNS <= 0 {
		t.Errorf("WallNS = %d, want > 0", s.WallNS)
	}
	if s.Allocs == 0 {
		t.Errorf("Allocs = 0, want > 0 after 64 slice allocations")
	}
	if s.Bytes < 64*4096 {
		t.Errorf("Bytes = %d, want >= %d", s.Bytes, 64*4096)
	}
}

func TestAggregates(t *testing.T) {
	samples := []Sample{
		{WallNS: 30, Allocs: 12, Bytes: 300},
		{WallNS: 10, Allocs: 10, Bytes: 100},
		{WallNS: 20, Allocs: 11, Bytes: 200},
	}
	if got := MinWallNS(samples); got != 10 {
		t.Errorf("MinWallNS = %d, want 10", got)
	}
	if got := MinAllocs(samples); got != 10 {
		t.Errorf("MinAllocs = %d, want 10", got)
	}
	if got := MinBytes(samples); got != 100 {
		t.Errorf("MinBytes = %d, want 100", got)
	}
	if MinWallNS(nil) != 0 || MinAllocs(nil) != 0 || MinBytes(nil) != 0 {
		t.Error("empty-sample aggregates must be 0")
	}
}

func TestSimsPerSec(t *testing.T) {
	if got := SimsPerSec(1000, 1e9); got != 1000 {
		t.Errorf("SimsPerSec(1000 cycles, 1s) = %g, want 1000", got)
	}
	if got := SimsPerSec(500, 5e8); got != 1000 {
		t.Errorf("SimsPerSec(500 cycles, 0.5s) = %g, want 1000", got)
	}
	if SimsPerSec(100, 0) != 0 || SimsPerSec(0, 100) != 0 {
		t.Error("degenerate SimsPerSec inputs must yield 0")
	}
}

func TestCurrentEnv(t *testing.T) {
	e := CurrentEnv()
	if e.GoVersion == "" || e.GOOS == "" || e.GOARCH == "" || e.NumCPU < 1 {
		t.Errorf("CurrentEnv incomplete: %+v", e)
	}
}

func TestStringAndRegistryExport(t *testing.T) {
	s := Sample{WallNS: 1500000, Allocs: 42, Bytes: 2048, GCPauseNS: 100, GCCycles: 1}
	str := s.String()
	for _, want := range []string{"wall=1.5ms", "allocs=42", "bytes=2.0KiB", "gc=1"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
	reg := obs.NewRegistry()
	s.AddTo(reg, obs.PrefixHost)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"host.wall_ns": 1.5e+06`, `"host.allocs": 42`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("registry JSON missing %q:\n%s", want, buf.String())
		}
	}
}
