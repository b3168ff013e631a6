package bench_test

import (
	"encoding/json"
	"strings"
	"testing"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/uarch"
)

// FormatTable output is consumed by golden-diffing scripts; pin it exactly.
func TestFormatTableGolden(t *testing.T) {
	got := bench.FormatTable(
		[]string{"Benchmark", "Offload"},
		[][]string{
			{"compress", "16.172%"},
			{"go", " 7.539%"},
		})
	want := strings.Join([]string{
		"Benchmark  Offload",
		"---------  -------",
		"compress   16.172%",
		"go          7.539%",
		"",
	}, "\n")
	if got != want {
		t.Errorf("table drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestReportJSONGolden(t *testing.T) {
	type row struct {
		Workload string  `json:"workload"`
		Pct      float64 `json:"pct"`
	}
	r := bench.NewReport()
	r.Add("fig8_partition_sizes", "§7.1/Fig. 8", []row{{"compress", 16.5}})
	const want = `{
  "schema": "fpint-bench/v1",
  "experiments": [
    {
      "name": "fig8_partition_sizes",
      "section": "§7.1/Fig. 8",
      "rows": [
        {
          "workload": "compress",
          "pct": 16.5
        }
      ]
    }
  ]
}
`
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("report JSON drifted:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// An empty report must still carry the schema tag and decode cleanly.
func TestReportJSONEmpty(t *testing.T) {
	var sb strings.Builder
	if err := bench.NewReport().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema      string `json:"schema"`
		Experiments []any  `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != bench.ReportSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, bench.ReportSchema)
	}
}

// Measurement must carry the complete stall breakdown: per-cause cycles sum
// with issue-active cycles back to the total cycle count.
func TestMeasurementStallBreakdown(t *testing.T) {
	t.Parallel()
	s := bench.NewSuite()
	ws := bench.IntWorkloads()
	var w *bench.Workload
	for i := range ws {
		if ws[i].Name == "compress" {
			w = &ws[i]
		}
	}
	if w == nil {
		t.Fatal("compress workload missing")
	}
	m, err := s.Measure(w, codegen.SchemeAdvanced, uarch.Config4Way())
	if err != nil {
		t.Fatal(err)
	}
	var stalls int64
	for _, v := range m.Stalls {
		stalls += v
	}
	var bySub int64
	for _, v := range m.StallsBySub {
		bySub += v
	}
	if stalls == 0 || stalls != bySub {
		t.Fatalf("stall maps disagree: ΣStalls=%d ΣStallsBySub=%d", stalls, bySub)
	}
	if m.IssueActiveCycles+stalls != m.Cycles {
		t.Fatalf("active %d + stalls %d != cycles %d", m.IssueActiveCycles, stalls, m.Cycles)
	}
}
