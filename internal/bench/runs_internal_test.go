package bench

import (
	"crypto/sha256"
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/faultinject"
	"fpint/internal/uarch"
)

// smallWorkloads are two short programs, so a whole pass of the cycle
// reports over them takes well under a second.
func smallWorkloads() []Workload {
	return []Workload{
		{Name: "bits", Class: "int", Src: `
int words[64];
int seed;
int rnd() { seed = seed * 1103515245 + 12345; return (seed >> 16) & 32767; }
int popcount(int x) {
	int n = 0;
	for (int i = 0; i < 31; i++) {
		if ((x >> i) & 1) n++;
	}
	return n;
}
int main() {
	seed = 321;
	int total = 0;
	for (int i = 0; i < 64; i++) {
		words[i] = rnd() * 65536 + rnd();
		total += popcount(words[i]);
	}
	print(total);
	return total;
}
`},
		{Name: "blend", Class: "fp", Src: `
float a[64];
float b[64];
int main() {
	for (int i = 0; i < 64; i++) {
		a[i] = (float)i * 0.5;
		b[i] = (float)(64 - i);
	}
	float s = 0.0;
	int hits = 0;
	for (int r = 0; r < 8; r++) {
		for (int i = 0; i < 64; i++) {
			float x = a[i] * 0.75 + b[(i + r) & 63] * 0.25;
			a[i] = x;
			if (x > 16.0) hits = hits + (i & 3);
			s = s + x;
		}
	}
	printf_(s);
	return hits;
}
`},
	}
}

// A pass of the cycle reports leaves one table entry per distinct binary
// per configuration: the reports share every run they quote, and no two
// binaries share an entry.
func TestRunsOneEntryPerBinary(t *testing.T) {
	t.Parallel()
	ws := smallWorkloads()
	cfgs := []uarch.Config{uarch.Config4Way(), uarch.Config8Way()}
	r := NewRuns(NewSuite())
	for _, cfg := range cfgs {
		if _, err := r.FigureSpeedups(ws, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Imbalance(ws, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := r.OracleGaps(ws, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := r.FaultSensitivity(ws, cfg, faultinject.Config{Seed: 1, Kind: faultinject.KindAny, Rate: 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	for _, scheme := range []codegen.Scheme{codegen.SchemeBasic, codegen.SchemeAdvanced} {
		if _, err := r.AnalysisDelta(ws, scheme); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Calibrate(ws, cfgs); err != nil {
		t.Fatal(err)
	}

	// The binaries those reports time: every scheme with the analyses
	// off, basic and advanced with them on, and advanced at every
	// calibration candidate.
	var opts []codegen.Options
	for _, scheme := range []codegen.Scheme{codegen.SchemeNone, codegen.SchemeBasic, codegen.SchemeAdvanced, codegen.SchemeOptimal} {
		opts = append(opts, codegen.Options{Scheme: scheme})
	}
	opts = append(opts,
		codegen.Options{Scheme: codegen.SchemeBasic, Analysis: true},
		codegen.Options{Scheme: codegen.SchemeAdvanced, Analysis: true})
	for _, cand := range calibCandidates() {
		opts = append(opts, codegen.Options{Scheme: codegen.SchemeAdvanced, Cost: cand})
	}
	want, requests := 0, 0
	for i := range ws {
		binaries := make(map[[sha256.Size]byte]bool)
		for _, o := range opts {
			res, err := r.s.compile(&ws[i], o)
			if err != nil {
				t.Fatal(err)
			}
			binaries[sha256.Sum256([]byte(res.Prog.Disassemble()))] = true
		}
		t.Logf("%s: %d distinct binaries of %d compiles", ws[i].Name, len(binaries), len(opts))
		want += len(binaries) * len(cfgs)
		requests += len(opts) * len(cfgs)
	}
	if got := len(r.m); got != want {
		t.Errorf("table holds %d entries, want %d (distinct binaries × configurations)", got, want)
	}
	if want >= requests {
		t.Errorf("no two compiles share a binary (%d of %d); the test shows no sharing", want, requests)
	}
}
