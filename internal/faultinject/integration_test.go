package faultinject_test

import (
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/faultinject"
	"fpint/internal/uarch"
)

// loopSrc is integer-dense enough that every scheme produces a long dynamic
// trace with FPa traffic under basic/advanced partitioning.
const loopSrc = `
int a[256];
int main() {
	int s = 0;
	for (int rep = 0; rep < 20; rep++) {
		for (int i = 0; i < 256; i++) {
			int x = a[i] ^ rep;
			int y = (x << 1) + (x >> 2) + rep;
			if (y & 1) s += y; else s ^= x;
			a[i] = y;
		}
	}
	return s & 1048575;
}`

var schemes = []codegen.Scheme{codegen.SchemeNone, codegen.SchemeBasic, codegen.SchemeAdvanced}

func compileProg(t *testing.T, scheme codegen.Scheme) *codegen.Result {
	t.Helper()
	res, _, err := codegen.CompileSource(loopSrc, codegen.Options{Scheme: scheme})
	if err != nil {
		t.Fatalf("compile %v: %v", scheme, err)
	}
	return res
}

func runInjected(t *testing.T, res *codegen.Result, cfg uarch.Config, fc faultinject.Config) (int64, uarch.Stats, *uarch.CycleProfile, *faultinject.Plan) {
	t.Helper()
	plan := faultinject.NewPlan(fc)
	m := uarch.NewMachine(cfg)
	m.SetFaultPlan(plan)
	m.SetProfiling(true)
	out, st, err := m.Run(res.Prog)
	if err != nil {
		t.Fatalf("injected run: %v", err)
	}
	return out.Ret, st, m.Profile(), plan
}

// Acceptance: the same fault seed must reproduce a byte-identical fault
// trace.
func TestSameSeedByteIdenticalTrace(t *testing.T) {
	res := compileProg(t, codegen.SchemeAdvanced)
	fc := faultinject.Config{Seed: 11, Kind: faultinject.KindAny, Rate: 0.002}
	_, st1, _, p1 := runInjected(t, res, uarch.Config4Way(), fc)
	_, st2, _, p2 := runInjected(t, res, uarch.Config4Way(), fc)
	if st1.FaultsInjected == 0 {
		t.Fatal("no faults injected; rate too low for this trace")
	}
	if p1.TraceString() != p2.TraceString() {
		t.Fatalf("fault traces differ across identical runs:\n--- run 1\n%s--- run 2\n%s",
			p1.TraceString(), p2.TraceString())
	}
	if st1.Cycles != st2.Cycles || st1.FaultRecoveryCycles != st2.FaultRecoveryCycles {
		t.Fatalf("timing diverged under identical fault plans: %d vs %d cycles", st1.Cycles, st2.Cycles)
	}
	// A different seed must produce a different schedule (the trace is a
	// function of the seed, not of the program alone).
	_, _, _, p3 := runInjected(t, res, uarch.Config4Way(),
		faultinject.Config{Seed: 12, Kind: faultinject.KindAny, Rate: 0.002})
	if p3.TraceString() == p1.TraceString() {
		t.Error("seeds 11 and 12 produced identical fault traces")
	}
}

// Acceptance: the stall ledger and the per-PC profile must still close
// (Σ == cycles) under every injected-fault run — every scheme, both Table 1
// machines, every fault kind.
func TestLedgerClosesUnderInjection(t *testing.T) {
	kinds := []faultinject.Kind{
		faultinject.KindAny, faultinject.KindRegBitFlip, faultinject.KindCopyCorrupt,
		faultinject.KindWritebackDrop, faultinject.KindWritebackDelay, faultinject.KindWrongDispatch,
	}
	for _, scheme := range schemes {
		res := compileProg(t, scheme)
		for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
			for _, kind := range kinds {
				_, st, prof, _ := runInjected(t, res, cfg,
					faultinject.Config{Seed: 5, Kind: kind, Rate: 0.005})
				if err := st.StallAccountingError(); err != 0 {
					t.Errorf("%v/%s/%v: stall ledger open by %d cycles", scheme, cfg.Name, kind, err)
				}
				if got := prof.TotalAttributed(); got != st.Cycles {
					t.Errorf("%v/%s/%v: per-PC profile attributes %d of %d cycles",
						scheme, cfg.Name, kind, got, st.Cycles)
				}
			}
		}
	}
}

// The detection/recovery discipline guarantees architecturally correct
// output: an injected run must return exactly what the fault-free run
// returns, for every scheme.
func TestArchitecturalOutputUnaffected(t *testing.T) {
	for _, scheme := range schemes {
		res := compileProg(t, scheme)
		clean, _, err := uarch.Run(res.Prog, uarch.Config4Way())
		if err != nil {
			t.Fatal(err)
		}
		ret, st, _, _ := runInjected(t, res, uarch.Config4Way(),
			faultinject.Config{Seed: 2, Kind: faultinject.KindAny, Rate: 0.01})
		if ret != clean.Ret {
			t.Fatalf("%v: injected run returned %d, fault-free %d", scheme, ret, clean.Ret)
		}
		if st.FaultsInjected == 0 {
			t.Fatalf("%v: no faults injected at rate 0.01", scheme)
		}
		if st.FaultRecoveryCycles == 0 {
			t.Fatalf("%v: faults injected but no recovery cycles charged", scheme)
		}
	}
}

// Recovery must cost cycles: an injected run is never faster than its
// fault-free twin, and the fault-recovery stall cause actually absorbs
// cycles when flush-class faults fire.
func TestRecoveryCostsCycles(t *testing.T) {
	res := compileProg(t, codegen.SchemeAdvanced)
	_, clean, err := uarch.Run(res.Prog, uarch.Config4Way())
	if err != nil {
		t.Fatal(err)
	}
	_, st, prof, plan := runInjected(t, res, uarch.Config4Way(),
		faultinject.Config{Seed: 2, Kind: faultinject.KindRegBitFlip, Rate: 0.01})
	if st.Cycles <= clean.Cycles {
		t.Errorf("injected run (%d cycles) not slower than fault-free (%d)", st.Cycles, clean.Cycles)
	}
	if got := st.StallCauseCycles(uarch.StallFaultRecovery); got == 0 {
		t.Error("no cycles attributed to fault-recovery despite flush faults")
	}
	// The per-PC profile must see the same cause.
	var profRecovery int64
	for _, s := range prof.Samples {
		profRecovery += s.Stall[uarch.StallFaultRecovery]
	}
	if profRecovery != st.StallCauseCycles(uarch.StallFaultRecovery) {
		t.Errorf("profile fault-recovery cycles %d != ledger %d",
			profRecovery, st.StallCauseCycles(uarch.StallFaultRecovery))
	}
	if int64(len(plan.Trace())) != st.FaultsInjected {
		t.Errorf("trace has %d faults, stats counted %d", len(plan.Trace()), st.FaultsInjected)
	}
}

// Per-scheme sensitivity: schemes that move work to FPa expose FPa-specific
// fault kinds the conventional binary cannot experience.
func TestSchemeSensitivityFPaKinds(t *testing.T) {
	fc := faultinject.Config{Seed: 3, Kind: faultinject.KindWritebackDrop, Rate: 0.02}
	resNone := compileProg(t, codegen.SchemeNone)
	_, stNone, _, _ := runInjected(t, resNone, uarch.Config4Way(), fc)
	if stNone.FaultsInjected != 0 {
		t.Errorf("conventional binary took %d FPa writeback faults", stNone.FaultsInjected)
	}
	resAdv := compileProg(t, codegen.SchemeAdvanced)
	_, stAdv, _, _ := runInjected(t, resAdv, uarch.Config4Way(), fc)
	if stAdv.FaultsInjected == 0 {
		t.Error("advanced binary exposed to no FPa writeback faults at rate 0.02")
	}
}

// A fault-free plan attached to the pipeline must not perturb timing: the
// injection path is strictly pay-for-use.
func TestZeroRatePlanIsTransparent(t *testing.T) {
	res := compileProg(t, codegen.SchemeAdvanced)
	_, clean, err := uarch.Run(res.Prog, uarch.Config4Way())
	if err != nil {
		t.Fatal(err)
	}
	_, st, _, plan := runInjected(t, res, uarch.Config4Way(),
		faultinject.Config{Seed: 1, Kind: faultinject.KindAny, Rate: 0})
	if st.Cycles != clean.Cycles || st.FaultsInjected != 0 || len(plan.Trace()) != 0 {
		t.Fatalf("zero-rate plan perturbed timing: %d vs %d cycles, %d faults",
			st.Cycles, clean.Cycles, st.FaultsInjected)
	}
}
