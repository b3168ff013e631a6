package uarch_test

import (
	"math"
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/uarch"
)

// sampledTestProg compiles the shared timing-test loop once per test.
func sampledTestProg(t *testing.T) *codegen.Result {
	t.Helper()
	res, _, err := codegen.CompileSource(loopSrc, codegen.Options{Scheme: codegen.SchemeAdvanced, Analysis: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res
}

// TestSampledPeriodOneIsDetailed pins the fast mode's degenerate case:
// Period <= 1 means every instruction is measured, so RunSampled must be
// the detailed model verbatim — identical cycles, identical stall ledger,
// no extrapolation — and must say so via Exact.
func TestSampledPeriodOneIsDetailed(t *testing.T) {
	res := sampledTestProg(t)
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		det, detSt, err := uarch.Run(res.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: detailed: %v", cfg.Name, err)
		}
		out, est, err := uarch.RunSampled(res.Prog, cfg, uarch.SampleConfig{Period: 1})
		if err != nil {
			t.Fatalf("%s: sampled: %v", cfg.Name, err)
		}
		if !est.Exact {
			t.Errorf("%s: Period=1 estimate not marked Exact", cfg.Name)
		}
		if est.Cycles != detSt.Cycles || est.Instructions != detSt.Instructions {
			t.Errorf("%s: Period=1 cycles %d, want detailed %d", cfg.Name, est.Cycles, detSt.Cycles)
		}
		if est.IssueActiveCycles != detSt.IssueActiveCycles || est.StallBySub != detSt.StallBySub {
			t.Errorf("%s: Period=1 stall ledger differs from detailed run", cfg.Name)
		}
		if out.Ret != det.Ret || out.Output != det.Output {
			t.Errorf("%s: Period=1 functional result differs", cfg.Name)
		}
		if est.SampledFraction != 1 || est.FinalPeriod != 1 || est.RelCI != 0 {
			t.Errorf("%s: Period=1 sampled fraction %v, final period %d, rel CI %v; want 1, 1, 0",
				cfg.Name, est.SampledFraction, est.FinalPeriod, est.RelCI)
		}
	}
}

// twoPhaseProg compiles twoPhaseSrc, on which the default sampling period
// doubles on both Table 1 machines.
func twoPhaseProg(t *testing.T) *codegen.Result {
	t.Helper()
	res, _, err := codegen.CompileSource(twoPhaseSrc, codegen.Options{Scheme: codegen.SchemeAdvanced})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res
}

// TestSampledDeterministic pins that the estimator is a pure function of
// (program, config, SampleConfig): repeated runs — including on a reused
// warm machine, and with the period doubling mid-run — must agree
// bit-for-bit, and a different seed must still produce a valid (generally
// different) estimate rather than noise.
func TestSampledDeterministic(t *testing.T) {
	res := sampledTestProg(t)
	cfg := uarch.Config4Way()
	m := uarch.NewMachine(cfg)
	cases := []struct {
		prog *codegen.Result
		sc   uarch.SampleConfig
	}{
		{res, uarch.SampleConfig{Period: 4, Width: 500, Warmup: 500, Seed: 42}},
		// The period doubles here; the warm machine last ran the loop.
		{twoPhaseProg(t), uarch.DefaultSampleConfig()},
	}
	for _, c := range cases {
		sc := c.sc
		_, first, err := uarch.RunSampled(c.prog.Prog, cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			_, again, err := m.RunSampled(c.prog.Prog, sc)
			if err != nil {
				t.Fatalf("%+v run %d: %v", sc, i, err)
			}
			if again.Cycles != first.Cycles || again.MeasuredInstructions != first.MeasuredInstructions ||
				again.Windows != first.Windows || again.StallBySub != first.StallBySub ||
				again.FinalPeriod != first.FinalPeriod || again.RelCI != first.RelCI ||
				again.FetchMispredictStalls != first.FetchMispredictStalls {
				t.Fatalf("%+v run %d: estimate not deterministic: %d cycles (%d measured, period %d) vs %d (%d, period %d)",
					sc, i, again.Cycles, again.MeasuredInstructions, again.FinalPeriod,
					first.Cycles, first.MeasuredInstructions, first.FinalPeriod)
			}
		}
	}

	sc := uarch.SampleConfig{Period: 4, Width: 500, Warmup: 500, Seed: 42}

	// A different seed shifts the sampling phase; the estimate must remain
	// internally consistent whether or not the total moves.
	sc.Seed = 7
	_, other, err := uarch.RunSampled(res.Prog, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if other.Windows == 0 || other.MeasuredInstructions == 0 {
		t.Errorf("seed 7: no measured windows")
	}
	if err := other.StallAccountingError(); err != 0 {
		t.Errorf("seed 7: ledger not closed: error %d", err)
	}
}

// TestSampledLedgerClosure pins the extrapolated stall ledger: in sampled
// mode the estimate is assembled as IssueActiveCycles + ΣStallBySub, so
// the closure invariant the detailed model proves cycle-by-cycle must
// hold exactly on the scaled numbers too, for a spread of sampling
// parameters on both machine configurations.
func TestSampledLedgerClosure(t *testing.T) {
	res := sampledTestProg(t)
	params := []uarch.SampleConfig{
		{},                                    // defaults
		{Period: 2, Width: 200, Warmup: 100},  // dense
		{Period: 16, Width: 250, Warmup: 750}, // sparse
		{Period: 4, Width: 500, Warmup: 500, Seed: 99},
	}
	type run struct {
		prog *codegen.Result
		sc   uarch.SampleConfig
	}
	var runs []run
	for _, sc := range params {
		runs = append(runs, run{res, sc})
	}
	// The doubling case: strata at several periods, each scaled by its own
	// weight, must still close cell by cell.
	runs = append(runs, run{twoPhaseProg(t), uarch.DefaultSampleConfig()})
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		m := uarch.NewMachine(cfg)
		for k, r := range runs {
			sc := r.sc
			_, est, err := m.RunSampled(r.prog.Prog, sc)
			if err != nil {
				t.Fatalf("%s %+v: %v", cfg.Name, sc, err)
			}
			if lerr := est.StallAccountingError(); lerr != 0 {
				t.Errorf("%s %+v: sampled ledger not closed: error %d", cfg.Name, sc, lerr)
			}
			if est.Cycles <= 0 {
				t.Errorf("%s %+v: no cycle estimate", cfg.Name, sc)
			}
			if est.Exact {
				continue
			}
			if k == len(runs)-1 && est.FinalPeriod <= sc.Period {
				t.Errorf("%s: doubling case ended at period %d", cfg.Name, est.FinalPeriod)
			}
			issued := est.IssuedINT + est.IssuedFP + est.IssuedFPa
			if issued != est.Instructions {
				t.Errorf("%s %+v: issued %d != instructions %d", cfg.Name, sc, issued, est.Instructions)
			}
		}
	}
}

// TestSampledDetailedModeUnaffected pins that running the fast mode on a
// machine leaves it fully usable for detailed runs afterwards: the trace
// hook is restored and the next detailed run matches a fresh machine's.
func TestSampledDetailedModeUnaffected(t *testing.T) {
	res := sampledTestProg(t)
	cfg := uarch.Config8Way()
	fresh, freshSt, err := uarch.Run(res.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := uarch.NewMachine(cfg)
	if _, _, err := m.RunSampled(res.Prog, uarch.DefaultSampleConfig()); err != nil {
		t.Fatal(err)
	}
	out, st, err := m.Run(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != freshSt.Cycles || st.StallBySub != freshSt.StallBySub {
		t.Errorf("detailed run after sampled run differs: %d cycles vs %d", st.Cycles, freshSt.Cycles)
	}
	if out.Ret != fresh.Ret || out.Output != fresh.Output {
		t.Errorf("functional result differs after sampled run")
	}
}

// twoPhaseSrc runs a short cache-missing phase — a 64-byte stride through a
// 512 KiB array, so every load misses the 32 KiB D-cache — and then a long
// register-only ALU loop. The first phase is sampled densely while the
// period is still at its start; by the second phase it has doubled.
const twoPhaseSrc = `
int big[65536];
int main() {
	int s = 0;
	for (int r = 0; r < 8; r++)
		for (int i = 0; i < 65536; i += 8) s += big[i] + i;
	for (int i = 0; i < 300000; i++) s = (s ^ i) + (s >> 3);
	return s & 1048575;
}`

// TestSampledTwoPhaseStratified pins the stratified estimate on a program
// whose phases are sampled at different periods: the estimate must stay
// within the fast-mode error budget and the period must have grown. A
// single ratio over all measured windows would weight the densely sampled
// miss phase by its share of the measured instructions instead of its
// share of the run, so it is checked to be the worse estimate.
func TestSampledTwoPhaseStratified(t *testing.T) {
	res := twoPhaseProg(t)
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		_, det, err := uarch.Run(res.Prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc := uarch.DefaultSampleConfig()
		_, est, err := uarch.RunSampled(res.Prog, cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		relErr := func(c float64) float64 { return math.Abs(c-float64(det.Cycles)) / float64(det.Cycles) }
		got := relErr(float64(est.Cycles))
		naive := relErr(float64(est.MeasuredCycles) * float64(est.Instructions) / float64(est.MeasuredInstructions))
		t.Logf("%s: detailed %d, stratified %d (%.2f%%), unstratified %.2f%%, final period %d, rel CI %.2f%%",
			cfg.Name, det.Cycles, est.Cycles, 100*got, 100*naive, est.FinalPeriod, 100*est.RelCI)
		if got > 0.05 {
			t.Errorf("%s: stratified estimate off by %.2f%%, budget 5%%", cfg.Name, 100*got)
		}
		if est.FinalPeriod <= sc.Period {
			t.Errorf("%s: final period %d, want above the starting %d", cfg.Name, est.FinalPeriod, sc.Period)
		}
		if naive <= got {
			t.Errorf("%s: unstratified estimate (%.2f%%) no worse than stratified (%.2f%%); phases not exercised",
				cfg.Name, 100*naive, 100*got)
		}
		if lerr := est.StallAccountingError(); lerr != 0 {
			t.Errorf("%s: ledger not closed: error %d", cfg.Name, lerr)
		}
	}
}
