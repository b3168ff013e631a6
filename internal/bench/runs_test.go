package bench_test

import (
	"sync"
	"testing"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/uarch"
)

// tiny is a program of a few thousand instructions, for the contracts
// that count simulations rather than read cycles.
var tiny = bench.Workload{Name: "tiny", Class: "int", Src: `
int a[32];
int main() {
	int s = 0;
	for (int r = 0; r < 4; r++) {
		for (int i = 0; i < 32; i++) {
			a[i] = (a[i] + i * r) & 255;
			if (a[i] > 100) s += a[i] >> 2; else s += a[i] ^ r;
		}
	}
	return s;
}
`}

// fastSuite returns a Suite in the sampled mode, whose FastSummary counts
// the simulations it has run.
func fastSuite() *bench.Suite {
	s := bench.NewSuite()
	s.SetFast(uarch.DefaultSampleConfig())
	return s
}

// Suite.Measure simulates on every call: the sweep workloads loop over it
// and must time every pass.
func TestSuiteMeasureSimulatesEveryCall(t *testing.T) {
	t.Parallel()
	s := fastSuite()
	var ms [2]*bench.Measurement
	for i := range ms {
		m, err := s.Measure(&tiny, codegen.SchemeAdvanced, uarch.Config4Way())
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	if got := s.FastSummary().Runs; got != 2 {
		t.Errorf("two Measure calls ran %d simulations, want 2", got)
	}
	if ms[0].Host == ms[1].Host {
		t.Error("two Measure calls share one host sample")
	}
	if ms[0].Cycles != ms[1].Cycles {
		t.Errorf("repeat measured %d cycles, first %d", ms[1].Cycles, ms[0].Cycles)
	}
}

// Concurrent requests for one (source, binary, configuration) run one
// simulation, and another configuration gets an entry of its own.
func TestRunsSimulateOncePerKey(t *testing.T) {
	t.Parallel()
	s := fastSuite()
	r := bench.NewRuns(s)
	var ms [8]*bench.Measurement
	var errs [8]error
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[i], errs[i] = r.Measure(&tiny, codegen.SchemeAdvanced, uarch.Config4Way())
		}()
	}
	wg.Wait()
	for i := range ms {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if ms[i].Host != ms[0].Host {
			t.Errorf("request %d got a host sample of its own", i)
		}
	}
	if got := s.FastSummary().Runs; got != 1 {
		t.Errorf("%d concurrent requests ran %d simulations, want 1", len(ms), got)
	}
	m8, err := r.Measure(&tiny, codegen.SchemeAdvanced, uarch.Config8Way())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.FastSummary().Runs; got != 2 || m8.Host == ms[0].Host || m8.Config != uarch.Config8Way().Name {
		t.Errorf("8-way request: %d simulations in all, config %q; want 2 and its own entry", got, m8.Config)
	}
}

// The table keys runs by binary, not by scheme: gcc compiles to the same
// binary under advanced and optimal, so the two share one run, and each
// requester reads its own scheme label.
func TestRunsShareSameBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed-model measurement")
	}
	t.Parallel()
	w := bench.Lookup("gcc")
	adv, err := suite.Compile(w, codegen.SchemeAdvanced)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := suite.Compile(w, codegen.SchemeOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Prog.Disassemble() != opt.Prog.Disassemble() {
		t.Fatal("gcc no longer compiles to one binary under advanced and optimal; pick a workload that does")
	}
	var ms [2]*bench.Measurement
	var errs [2]error
	var wg sync.WaitGroup
	for i, sch := range []codegen.Scheme{codegen.SchemeAdvanced, codegen.SchemeOptimal} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[i], errs[i] = runs.Measure(w, sch, uarch.Config4Way())
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if ms[0].Host != ms[1].Host || ms[0].Cycles != ms[1].Cycles {
		t.Error("advanced and optimal gcc compile to one binary but were timed twice")
	}
	if ms[0].Scheme != codegen.SchemeAdvanced || ms[1].Scheme != codegen.SchemeOptimal || ms[1].Workload != "gcc" {
		t.Errorf("labels %s/%s and %s/%s, want each requester's", ms[0].Workload, ms[0].Scheme, ms[1].Workload, ms[1].Scheme)
	}
}
