package difftest

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/lang"
)

// TestGeneratorWellTyped: every generated program must survive the full
// frontend — the generator's core contract.
func TestGeneratorWellTyped(t *testing.T) {
	cfgs := map[string]GenConfig{"default": DefaultGenConfig()}
	traps := DefaultGenConfig()
	traps.Traps = true
	cfgs["traps"] = traps
	noFloat := DefaultGenConfig()
	noFloat.Floats = false
	cfgs["nofloat"] = noFloat
	for name, cfg := range cfgs {
		for s := int64(1); s <= 100; s++ {
			src := NewGenerator(s, cfg).Program()
			if _, err := codegen.Frontend(src, nil); err != nil {
				t.Fatalf("%s seed %d: %v\n%s", name, s, err, src)
			}
		}
	}
}

// TestGeneratorDeterministic: identical seeds must reproduce byte-identical
// programs (sweeps and crasher seeds depend on it).
func TestGeneratorDeterministic(t *testing.T) {
	for s := int64(1); s <= 10; s++ {
		a := NewGenerator(s, DefaultGenConfig()).Program()
		b := NewGenerator(s, DefaultGenConfig()).Program()
		if a != b {
			t.Fatalf("seed %d: generator is not deterministic", s)
		}
	}
}

// TestOracleAcceptsGenerated: the full oracle (timing included) passes on
// generated programs — the zero-mismatch baseline CI relies on.
func TestOracleAcceptsGenerated(t *testing.T) {
	n := int64(25)
	if testing.Short() {
		n = 5
	}
	for s := int64(1); s <= n; s++ {
		src := NewGenerator(s, DefaultGenConfig()).Program()
		if err := Check(src, DefaultOptions()); err != nil && !errors.Is(err, ErrSkip) {
			t.Fatalf("seed %d: %v\n%s", s, err, src)
		}
	}
}

// TestTrapDifferential: programs that fault must fault identically in the
// interpreter and in compiled code under every scheme.
func TestTrapDifferential(t *testing.T) {
	cases := map[string]string{
		"div-by-zero": "int main() { int x = 0; return 7 / x; }",
		"rem-by-zero": "int main() { int x = 0; int y = 9; return y % x; }",
		"oob-load":    "int g[8]; int main() { int i = 10000000; return g[i]; }",
		"oob-store":   "int g[8]; int main() { int i = 9000000; g[i] = 3; return 0; }",
	}
	for name, src := range cases {
		if err := Check(src, DefaultOptions()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPrinterRoundTrip: printing any checked testdata program must yield
// source that re-parses, re-checks, and reaches the printer fixpoint.
func TestPrinterRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(data))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out, err := Print(prog)
		if err != nil {
			t.Fatalf("%s: print: %v", file, err)
		}
		p2, err := lang.Parse(out)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", file, err, out)
		}
		if err := lang.Check(p2); err != nil {
			t.Fatalf("%s: recheck: %v\n%s", file, err, out)
		}
		if again, err := Print(p2); err != nil || again != out {
			t.Fatalf("%s: printer not a fixpoint (err=%v)", file, err)
		}
	}
}

// TestInjectedBugCaughtAndReduced is the acceptance-criterion test: a
// partitioner bug (component assignment flipped into FPa without its
// mandated copy) must be caught by the oracle and auto-reduced to a
// reproducer of at most 15 lines.
func TestInjectedBugCaughtAndReduced(t *testing.T) {
	o := Options{Interproc: true, PartitionHook: InjectFlip}
	caught := 0
	for s := int64(1); s <= 10; s++ {
		src := NewGenerator(s, DefaultGenConfig()).Program()
		err := Check(src, o)
		if err == nil || errors.Is(err, ErrSkip) {
			continue
		}
		caught++
		var mm *Mismatch
		if !errors.As(err, &mm) {
			t.Fatalf("seed %d: expected a *Mismatch, got %v", s, err)
		}
		red := ReduceFailure(src, err, o)
		if red == "" {
			t.Fatalf("seed %d: reduction failed for %v", s, err)
		}
		lines := strings.Count(red, "\n")
		if lines > 15 {
			t.Fatalf("seed %d: reproducer has %d lines (>15):\n%s", s, lines, red)
		}
		// The reproducer must still trip the buggy compiler and pass the
		// healthy one.
		if err := Check(red, o); err == nil {
			t.Fatalf("seed %d: reduced program no longer fails:\n%s", s, red)
		}
		healthy := o
		healthy.PartitionHook = nil
		if err := Check(red, healthy); err != nil {
			t.Fatalf("seed %d: reduced program fails without the injected bug: %v\n%s", s, err, red)
		}
	}
	if caught < 3 {
		t.Fatalf("injected bug caught on only %d/10 seeds", caught)
	}
}

// TestSweepAndWriteCrasher: the sweep surfaces injected failures and
// persists deterministic reproducer files.
func TestSweepAndWriteCrasher(t *testing.T) {
	o := Options{PartitionHook: InjectFlip}
	res := Sweep(1, 4, DefaultGenConfig(), o, true)
	if len(res.Failures) == 0 {
		t.Fatal("sweep found no injected failures")
	}
	dir := t.TempDir()
	f := res.Failures[0]
	path, err := WriteCrasher(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	if !strings.Contains(body, "// fpifuzz reproducer") || !strings.Contains(body, "int main") {
		t.Fatalf("malformed crasher file:\n%s", body)
	}
	// Idempotent naming: rewriting the same failure lands on the same file.
	again, err := WriteCrasher(dir, f)
	if err != nil || again != path {
		t.Fatalf("crasher naming not deterministic: %s vs %s (%v)", path, again, err)
	}
}

// TestSweepCleanBaseline: a healthy sweep reports zero failures.
func TestSweepCleanBaseline(t *testing.T) {
	res := Sweep(300, 10, DefaultGenConfig(), Options{Interproc: true, CheckProfit: true}, false)
	if len(res.Failures) != 0 {
		t.Fatalf("clean sweep failed: %+v", res.Failures[0])
	}
	if res.Ran == 0 {
		t.Fatal("sweep judged nothing")
	}
}

// TestReduceRequiresFailure: the reducer refuses inputs whose canonical
// form does not fail the predicate.
func TestReduceRequiresFailure(t *testing.T) {
	src := "int main() { return 1; }"
	out, ok := Reduce(src, func(string) bool { return false })
	if ok || out != src {
		t.Fatalf("Reduce fabricated a failure: ok=%v out=%q", ok, out)
	}
}
