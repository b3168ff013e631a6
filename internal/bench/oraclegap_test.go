package bench_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/uarch"
)

var update = flag.Bool("update", false, "rewrite the golden oracle-gap report")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("..", "..", "testdata", "golden", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: report differs from golden (run with -update after verifying)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestOracleGapGolden pins the fpibench -oracle-gap report on both Table 1
// machines and enforces the CI gate: the exact search completes on every
// workload and the optimal profit dominates the greedy profit everywhere.
func TestOracleGapGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite measurement")
	}
	t.Parallel()
	s := bench.NewSuite()
	var buf bytes.Buffer
	var all []bench.OracleGapRow
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		rows, err := s.OracleGaps(bench.IntWorkloads(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(bench.OracleGapTable(rows))
		all = append(all, rows...)
	}
	if err := bench.GateOracleGaps(all); err != nil {
		t.Errorf("oracle-gap gate failed: %v", err)
	}
	for _, r := range all {
		if r.OptimalProfit <= 0 {
			t.Errorf("%s/%s: optimal profit %g — the oracle offloaded nothing", r.Workload, r.Config, r.OptimalProfit)
		}
	}
	checkGolden(t, "fpibench.oraclegap.txt", buf.Bytes())
}

// TestGateOracleGapsRejects: the gate must fail on a dominance violation
// and on a degraded (non-exact) search, with regression-class errors.
func TestGateOracleGapsRejects(t *testing.T) {
	good := bench.OracleGapRow{Workload: "w", Config: "4way", GreedyProfit: 10, OptimalProfit: 12}
	if err := bench.GateOracleGaps([]bench.OracleGapRow{good}); err != nil {
		t.Fatalf("clean row rejected: %v", err)
	}
	bad := good
	bad.OptimalProfit = 9
	if err := bench.GateOracleGaps([]bench.OracleGapRow{good, bad}); err == nil {
		t.Error("dominance violation passed the gate")
	}
	deg := good
	deg.Degraded = 1
	if err := bench.GateOracleGaps([]bench.OracleGapRow{deg}); err == nil {
		t.Error("degraded search passed the gate")
	}
}

// TestCalibrationFitAndFeedback runs the self-calibration on a small
// workload subset and checks the whole loop: the fit stays on the paper's
// grid, the document round-trips through fpint-calib/v1 JSON, and
// compiling with the fitted constants records their provenance in the
// partition audit trail — for the greedy scheme and the exact oracle.
func TestCalibrationFitAndFeedback(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed-model measurement")
	}
	t.Parallel()
	s := bench.NewSuite()
	var ws []bench.Workload
	for _, name := range []string{"compress", "go", "perl"} {
		ws = append(ws, *bench.Lookup(name))
	}
	cfg := uarch.Config4Way()
	calib, err := s.Calibrate(ws, []uarch.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	fit := calib.Fit(cfg.Name)
	if fit == nil {
		t.Fatalf("no fit recorded for %s", cfg.Name)
	}
	if !fit.InPaperRange || fit.OCopy < 3 || fit.OCopy > 6 || fit.ODupl < 1.5 || fit.ODupl > 3 {
		t.Errorf("fit (o_copy=%g, o_dupl=%g) outside the paper ranges [3,6]×[1.5,3]", fit.OCopy, fit.ODupl)
	}
	if fit.R2 > 1 {
		t.Errorf("impossible R² %g", fit.R2)
	}
	if len(fit.Points) != len(ws) {
		t.Errorf("fit carries %d points, want %d", len(fit.Points), len(ws))
	}

	var buf bytes.Buffer
	if err := calib.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := bench.LoadCalibration(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("fpint-calib/v1 document does not round-trip: %v", err)
	}
	if af := again.Fit(cfg.Name); af == nil || af.OCopy != fit.OCopy || af.ODupl != fit.ODupl {
		t.Errorf("round-tripped fit differs: %+v vs %+v", af, fit)
	}
	if _, err := bench.LoadCalibration(strings.NewReader(`{"version":"bogus/v9"}`)); err == nil {
		t.Error("unknown calibration version accepted")
	}

	params, ok := calib.Params(cfg.Name)
	if !ok {
		t.Fatal("Params lost the fit")
	}
	if params.Provenance == "" || !strings.Contains(params.Provenance, bench.CalibVersion) {
		t.Fatalf("fitted params carry no provenance: %+v", params)
	}
	w := bench.Lookup("compress")
	for _, scheme := range []codegen.Scheme{codegen.SchemeAdvanced, codegen.SchemeOptimal} {
		res, _, err := codegen.CompileSource(w.Src, codegen.Options{Scheme: scheme, Cost: params})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		found := false
		for _, p := range res.Partitions {
			if p == nil || p.Audit == nil {
				continue
			}
			for _, note := range p.Audit.Notes {
				if strings.Contains(note, params.Provenance) {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%v: no audit trail records the calibration provenance", scheme)
		}
		for fn, p := range res.Partitions {
			if p == nil {
				continue
			}
			if err := core.VerifyPartition(p); err != nil {
				t.Errorf("%v/%s: fitted constants broke the partition: %v", scheme, fn, err)
			}
		}
	}
}
