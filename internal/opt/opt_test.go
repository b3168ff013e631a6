package opt_test

import (
	"strings"
	"testing"

	"fpint/internal/interp"
	"fpint/internal/ir"
	"fpint/internal/irgen"
	"fpint/internal/lang"
	"fpint/internal/opt"
)

func lower(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := lang.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	mod, err := irgen.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return mod
}

// optimizeAndRun checks that optimization preserves semantics and returns
// the optimized module plus the result.
func optimizeAndRun(t *testing.T, src string) (*ir.Module, int64) {
	t.Helper()
	ref := lower(t, src)
	refRes, err := interp.New(ref).Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	mod := lower(t, src)
	opt.Optimize(mod)
	for _, fn := range mod.Funcs {
		if err := fn.Verify(); err != nil {
			t.Fatalf("verify after opt: %v\n%s", err, fn)
		}
	}
	res, err := interp.New(mod).Run()
	if err != nil {
		t.Fatalf("optimized run: %v", err)
	}
	if res.Ret != refRes.Ret || res.Output != refRes.Output {
		t.Fatalf("optimization changed semantics: %d vs %d", res.Ret, refRes.Ret)
	}
	if res.Steps > refRes.Steps {
		t.Errorf("optimized code executes more IR steps (%d) than unoptimized (%d)", res.Steps, refRes.Steps)
	}
	return mod, res.Ret
}

func countOps(mod *ir.Module, fnName string, op ir.Op) int {
	n := 0
	for _, fn := range mod.Funcs {
		if fnName != "" && fn.Name != fnName {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op == op {
					n++
				}
			}
		}
	}
	return n
}

func TestConstFoldCollapsesArithmetic(t *testing.T) {
	mod, ret := optimizeAndRun(t, `int main() { return 2*3 + (10 >> 1) - (7 & 5); }`)
	if ret != 6 {
		t.Fatalf("ret = %d", ret)
	}
	// Everything folds to a single constant return.
	for _, op := range []ir.Op{ir.OpAdd, ir.OpMul, ir.OpShrA, ir.OpAnd, ir.OpSub} {
		if n := countOps(mod, "main", op); n != 0 {
			t.Errorf("%s not folded (%d remain)", op, n)
		}
	}
}

func TestDeadCodeRemoved(t *testing.T) {
	mod, _ := optimizeAndRun(t, `
int main() {
	int unused = 12345;
	int alsoUnused = unused * 2;
	return 7;
}`)
	if n := countOps(mod, "main", ir.OpMul); n != 0 {
		t.Errorf("dead multiply survived")
	}
}

func TestCSEEliminatesRepeatedAddressing(t *testing.T) {
	src := `
int a[16];
int main() {
	a[5] = 3;
	a[5] = a[5] + a[5];
	return a[5];
}`
	mod, ret := optimizeAndRun(t, src)
	if ret != 6 {
		t.Fatalf("ret = %d", ret)
	}
	// The address of a[5] is computed once per block at most; after CSE,
	// fewer addrg ops than the naive 4.
	if n := countOps(mod, "main", ir.OpAddrGlobal); n > 2 {
		t.Errorf("addrg count %d suggests CSE failed", n)
	}
}

func TestImmediateFolding(t *testing.T) {
	mod, _ := optimizeAndRun(t, `
int g[8];
int main() {
	int s = 0;
	for (int i = 0; i < 8; i++) s += g[i] + 3;
	return s;
}`)
	// The loop bound comparison and the +3 should use immediate forms.
	immCount := 0
	for _, fn := range mod.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.ImmArg {
					immCount++
				}
			}
		}
	}
	if immCount < 2 {
		t.Errorf("expected immediate-form instructions, got %d\n%s", immCount, mod)
	}
}

func TestImmediateFoldSwapsComparisons(t *testing.T) {
	// `3 < x` must become `x > 3` in immediate form.
	mod, ret := optimizeAndRun(t, `
int x = 10;
int main() {
	int v = x;
	if (3 < v) return 1;
	return 0;
}`)
	if ret != 1 {
		t.Fatalf("ret = %d", ret)
	}
	found := false
	for _, b := range mod.Lookup("main").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCmpGT && in.ImmArg && in.Imm == 3 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("comparison not swapped to immediate form:\n%s", mod)
	}
}

func TestLICMHoistsInvariantAddress(t *testing.T) {
	src := `
int data[64];
int total;
int main() {
	for (int i = 0; i < 64; i++) total += data[i];
	return total;
}`
	mod, _ := optimizeAndRun(t, src)
	// The addrg for data should be outside the loop: find the loop blocks
	// (depth > 0) and assert no addrg inside.
	fn := mod.Lookup("main")
	for _, b := range fn.Blocks {
		if b.LoopDepth == 0 {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpAddrGlobal {
				t.Errorf("addrg %s not hoisted out of loop (depth %d)", in, b.LoopDepth)
			}
		}
	}
}

// TestLICMKeepsOuterVariantValues runs LICM on a nested loop whose inner
// loop comes first in NaturalLoops' order: the outer loop's latch follows
// the inner loop in layout. The inner pass hoists base+5 into the inner
// preheader, which lies inside the outer loop. The outer pass must not
// treat that value as already hoisted out of the outer loop; if it did,
// it would hoist the address computed from it above its definition.
func TestLICMKeepsOuterVariantValues(t *testing.T) {
	src := `
int a[64];
int main() {
	for (int k = 0; k < 64; k++) a[k] = k * 3 + 1;
	int s = 0; int i = 0;
	while (i < 7) {
		int base = i * 8;
		for (int j = 0; j < 3; j++) s = s + a[base + 5];
		i = i + 1;
	}
	return s;
}`
	mod, ret := optimizeAndRun(t, src)
	if ret != 1848 {
		t.Fatalf("ret = %d, want 1848", ret)
	}
	// The case needs the inner loop to come first: some loop must contain
	// the header of a loop found before it.
	loops := mod.Lookup("main").NaturalLoops()
	innerFirst := false
	for i := range loops {
		for j := i + 1; j < len(loops); j++ {
			if loops[j].Contains(loops[i].Header) && loops[i].Header != loops[j].Header {
				innerFirst = true
			}
		}
	}
	if !innerFirst {
		t.Errorf("no loop precedes a loop that encloses it; the test no longer covers that order")
	}
}

func TestBranchFoldRemovesDeadArm(t *testing.T) {
	mod, ret := optimizeAndRun(t, `
int main() {
	int s = 0;
	if (1) s = 5; else s = 99;
	if (0) s += 1000;
	return s;
}`)
	if ret != 5 {
		t.Fatalf("ret = %d", ret)
	}
	if n := countOps(mod, "main", ir.OpBr); n != 0 {
		t.Errorf("constant branches survived: %d", n)
	}
}

func TestShortCircuitPreserved(t *testing.T) {
	optimizeAndRun(t, `
int g;
int sideEffect() { g += 1; return 1; }
int main() {
	g = 0;
	int a = 0 && sideEffect();
	int b = 1 || sideEffect();
	return g*10 + a + b;
}`)
}

func TestOptimizeIdempotent(t *testing.T) {
	src := `
int a[32];
int main() {
	int s = 0;
	for (int i = 0; i < 32; i++) { a[i] = i ^ 5; s += a[i] * 3; }
	return s;
}`
	mod := lower(t, src)
	opt.Optimize(mod)
	first := mod.String()
	opt.Optimize(mod)
	second := mod.String()
	if first != second {
		t.Errorf("optimization not idempotent:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

func TestDivisionNotFoldedUnsafely(t *testing.T) {
	// x/0 must not be folded away or executed at compile time; the program
	// legitimately guards it.
	_, ret := optimizeAndRun(t, `
int main() {
	int d = 0;
	int s = 0;
	if (d != 0) s = 10 / d;
	return s + 1;
}`)
	if ret != 1 {
		t.Fatalf("ret = %d", ret)
	}
}

func TestPrintPreservedThroughOptimization(t *testing.T) {
	mod, _ := optimizeAndRun(t, `
int main() {
	print(1);
	print(2);
	return 0;
}`)
	if !strings.Contains(mod.String(), "call print") {
		t.Errorf("print calls were optimized away")
	}
}

func TestStrengthReduceMulByPowerOfTwo(t *testing.T) {
	mod, ret := optimizeAndRun(t, `
int g = 13;
int main() {
	int x = g;
	return x * 8 + 4 * x + x * -3;
}`)
	if ret != 13*8+4*13+13*-3 {
		t.Fatalf("ret = %d", ret)
	}
	// x*8 and 4*x become shifts; x*-3 must remain a multiply.
	if n := countOps(mod, "main", ir.OpMul); n != 1 {
		t.Errorf("mul count = %d, want 1 (only the non-power-of-two)\n%s", n, mod)
	}
	if n := countOps(mod, "main", ir.OpShl); n < 2 {
		t.Errorf("shl count = %d, want >= 2", n)
	}
}

func TestStrengthReduceNegativeValues(t *testing.T) {
	// Shifts of negative values must match multiplication semantics.
	_, ret := optimizeAndRun(t, `
int g = -7;
int main() { return g * 16; }`)
	if ret != -112 {
		t.Fatalf("ret = %d, want -112", ret)
	}
}
