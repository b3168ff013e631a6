package codegen_test

import (
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/difftest"
)

// benchSrc exercises the backend's expensive paths: several functions, an
// address-heavy loop the analyses can unpin, and enough live values to
// make register allocation work.
const benchSrc = `
int a[256];
int b[256];

int mix(int x, int y) {
	return (x * 31 + y) ^ (x >> 3);
}

int fill(int seed) {
	int s = seed;
	for (int i = 0; i < 256; i++) {
		a[i] = mix(s, i);
		b[i] = a[i] ^ (i << 2);
		s = s + b[i];
	}
	return s;
}

int main() {
	int acc = 0;
	for (int rep = 0; rep < 4; rep++) {
		acc = acc + fill(rep);
		for (int i = 0; i < 256; i++) acc = acc + a[i] * b[i];
	}
	return acc & 1048575;
}`

// BenchmarkCodegenHotPath times the backend proper — partitioning,
// instruction selection, register allocation — with the frontend run once
// outside the loop, under both the basic and analysis-sharpened advanced
// schemes. Run with -benchmem and feed the output to `fpistat record
// -gobench` to track compile-time cost in the run-record store.
func BenchmarkCodegenHotPath(b *testing.B) {
	mod, prof, err := codegen.FrontendPipeline(benchSrc)
	if err != nil {
		b.Fatalf("frontend: %v", err)
	}
	schemes := []struct {
		name     string
		scheme   codegen.Scheme
		analysis bool
	}{
		{"basic", codegen.SchemeBasic, false},
		{"advanced_analysis", codegen.SchemeAdvanced, true},
	}
	for _, s := range schemes {
		s := s
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codegen.Compile(mod, codegen.Options{
					Scheme: s.scheme, Profile: prof, Analysis: s.analysis,
				}); err != nil {
					b.Fatalf("compile: %v", err)
				}
			}
		})
	}
}

// BenchmarkFrontendPipeline times the whole frontend — parse, check,
// lower, optimize and the self-profile interpreter run — on benchSrc. Its
// bytes/op show what the interpreter's arena costs a compile.
func BenchmarkFrontendPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := codegen.FrontendPipeline(benchSrc); err != nil {
			b.Fatalf("frontend: %v", err)
		}
	}
}

// BenchmarkOptimalOracle times an optimal-scheme compile of one generated
// program whose functions hold wide RDG components, at the 16K expansion
// cap compile-mix uses, and reports the oracle's branch-and-bound
// expansions per compile. A looser pruning bound shows as more expansions
// and a longer compile here first.
func BenchmarkOptimalOracle(b *testing.B) {
	cfg := difftest.DefaultGenConfig()
	cfg.MaxStmts = 384
	mod, prof, err := codegen.FrontendPipeline(difftest.NewGenerator(14, cfg).Program())
	if err != nil {
		b.Fatalf("frontend: %v", err)
	}
	opts := codegen.Options{Scheme: codegen.SchemeOptimal, Profile: prof,
		Oracle: core.OracleLimits{MaxExpansions: 1 << 14}}
	// One untimed compile first, so that CI's single-iteration run times
	// the search and not first-use set-up.
	if _, err := codegen.Compile(mod, opts); err != nil {
		b.Fatalf("compile: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var expansions int64
	for i := 0; i < b.N; i++ {
		res, err := codegen.Compile(mod, opts)
		if err != nil {
			b.Fatalf("compile: %v", err)
		}
		for _, r := range res.Oracle {
			expansions += r.Expansions
		}
	}
	b.ReportMetric(float64(expansions)/float64(b.N), "expansions/op")
}
