package interp_test

import (
	"testing"

	"fpint/internal/interp"
	"fpint/internal/ir"
	"fpint/internal/irgen"
	"fpint/internal/lang"
	"fpint/internal/opt"
)

// compile parses, checks, lowers, and optimizes src.
func compile(t *testing.T, src string) *ir.Module {
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
	opt.Optimize(mod)
	for _, fn := range mod.Funcs {
		if err := fn.Verify(); err != nil {
			t.Fatalf("verify after opt: %v\n%s", err, fn)
		}
	}
	return mod
}

func run(t *testing.T, src string) *interp.Result {
	t.Helper()
	mod := compile(t, src)
	res, err := interp.New(mod).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestReturnConstant(t *testing.T) {
	res := run(t, `int main() { return 42; }`)
	if res.Ret != 42 {
		t.Fatalf("ret = %d, want 42", res.Ret)
	}
}

func TestArithmetic(t *testing.T) {
	res := run(t, `
int main() {
	int a = 7;
	int b = 3;
	return a*b + a/b - a%b + (a<<b) + (a>>1) + (a&b) + (a|b) + (a^b) + ~a + -b;
}`)
	// 21 + 2 - 1 + 56 + 3 + 3 + 7 + 4 + (-8) + (-3) = 84
	if res.Ret != 84 {
		t.Fatalf("ret = %d, want 84", res.Ret)
	}
}

func TestGlobalsAndArrays(t *testing.T) {
	res := run(t, `
int total;
int a[10];
int main() {
	for (int i = 0; i < 10; i++) a[i] = i*i;
	total = 0;
	for (int i = 0; i < 10; i++) total += a[i];
	return total;
}`)
	if res.Ret != 285 {
		t.Fatalf("ret = %d, want 285", res.Ret)
	}
}

func TestGlobalInitializers(t *testing.T) {
	res := run(t, `
int k = 5;
int tab[4] = {10, 20, 30, 40};
int main() { return k + tab[2]; }`)
	if res.Ret != 35 {
		t.Fatalf("ret = %d, want 35", res.Ret)
	}
}

func TestFunctionCalls(t *testing.T) {
	res := run(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}
int main() { return fib(12); }`)
	if res.Ret != 144 {
		t.Fatalf("fib(12) = %d, want 144", res.Ret)
	}
}

func TestWhileAndBreakContinue(t *testing.T) {
	res := run(t, `
int main() {
	int s = 0;
	int i = 0;
	while (1) {
		i++;
		if (i > 100) break;
		if (i % 2 == 0) continue;
		s += i;
	}
	return s;
}`)
	if res.Ret != 2500 {
		t.Fatalf("ret = %d, want 2500", res.Ret)
	}
}

func TestDoWhile(t *testing.T) {
	res := run(t, `
int main() {
	int i = 0;
	int s = 0;
	do { s += i; i++; } while (i < 5);
	return s;
}`)
	if res.Ret != 10 {
		t.Fatalf("ret = %d, want 10", res.Ret)
	}
}

func TestShortCircuit(t *testing.T) {
	res := run(t, `
int g;
int bump() { g++; return 0; }
int main() {
	g = 0;
	int a = 0 && bump();
	int b = 1 || bump();
	int c = 1 && bump();
	int d = 0 || bump();
	return g*100 + a*8 + b*4 + c*2 + d;
}`)
	// bump runs twice (c and d): g=2; a=0,b=1,c=0,d=0 -> 204
	if res.Ret != 204 {
		t.Fatalf("ret = %d, want 204", res.Ret)
	}
}

func TestTernaryAndUnary(t *testing.T) {
	res := run(t, `
int main() {
	int x = 5;
	int y = x > 3 ? 10 : 20;
	int z = !x + !0;
	return y + z;
}`)
	if res.Ret != 11 {
		t.Fatalf("ret = %d, want 11", res.Ret)
	}
}

func TestFloatArithmetic(t *testing.T) {
	res := run(t, `
float fsum(float a, float b) { return a + b; }
int main() {
	float x = 1.5;
	float y = 2.25;
	float z = fsum(x, y) * 4.0;
	return (int) z;
}`)
	if res.Ret != 15 {
		t.Fatalf("ret = %d, want 15", res.Ret)
	}
}

func TestFloatArraysAndConversion(t *testing.T) {
	res := run(t, `
float v[8];
int main() {
	for (int i = 0; i < 8; i++) v[i] = (float) i * 0.5;
	float s = 0.0;
	for (int i = 0; i < 8; i++) s += v[i];
	return (int)(s * 10.0);
}`)
	if res.Ret != 140 {
		t.Fatalf("ret = %d, want 140", res.Ret)
	}
}

func TestPrintBuiltins(t *testing.T) {
	res := run(t, `
int main() {
	print(7);
	printf_(2.5);
	return 0;
}`)
	if res.Output != "7\n2.5\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestLocalArrays(t *testing.T) {
	res := run(t, `
int sum3(int v[]) { return v[0] + v[1] + v[2]; }
int main() {
	int buf[3];
	buf[0] = 4; buf[1] = 8; buf[2] = 15;
	return sum3(buf);
}`)
	if res.Ret != 27 {
		t.Fatalf("ret = %d, want 27", res.Ret)
	}
}

func TestProfileCounts(t *testing.T) {
	src := `
int main() {
	int s = 0;
	for (int i = 0; i < 37; i++) s += i;
	return s;
}`
	res := run(t, src)
	if res.Ret != 666 {
		t.Fatalf("ret = %d, want 666", res.Ret)
	}
	if !res.Profile.Covered("main") {
		t.Fatalf("profile does not cover main")
	}
	// Some block must have executed 37 times (the loop body).
	found := false
	for _, c := range res.Profile.Counts["main"] {
		if c == 37 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no block with count 37: %v", res.Profile.Counts["main"])
	}
}

// TestProfileOmitsUnexecuted: the profile holds only called functions and
// only the blocks that ran; a block that never ran has no key, and a
// function never called is not covered.
func TestProfileOmitsUnexecuted(t *testing.T) {
	src := `
int unused(int x) { return x * 3; }
int clamp(int x) {
	if (x > 100) return 100;
	return x;
}
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) s += clamp(i);
	return s;
}`
	mod := compile(t, src)
	res, err := interp.New(mod).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Ret != 45 {
		t.Fatalf("ret = %d, want 45", res.Ret)
	}
	if res.Profile.Covered("unused") {
		t.Errorf("uncalled function covered: %v", res.Profile.Counts["unused"])
	}
	if _, ok := res.Profile.Counts["unused"]; ok {
		t.Errorf("uncalled function has a profile entry")
	}
	counts := res.Profile.Counts["clamp"]
	for id, n := range counts {
		if n <= 0 {
			t.Errorf("clamp: block %d recorded with count %d", id, n)
		}
	}
	if nb := len(mod.Lookup("clamp").Blocks); len(counts) >= nb {
		t.Errorf("clamp: %d blocks counted of %d, want the x > 100 block missing: %v", len(counts), nb, counts)
	}
	if got := res.Profile.BlockCount("clamp", mod.Lookup("clamp").Entry.ID); got != 10 {
		t.Errorf("clamp entry count %d, want 10", got)
	}
}

func TestCompoundAssignAndIncDec(t *testing.T) {
	res := run(t, `
int a[4];
int main() {
	int x = 10;
	x += 5; x -= 2; x *= 3; x /= 2; x %= 11;
	x <<= 2; x >>= 1; x |= 8; x &= 14; x ^= 5;
	a[1] = 100;
	a[1] += 10;
	a[1]++;
	++a[1];
	a[1]--;
	return x * 1000 + a[1];
}`)
	// x: 10+5=15,13,39,19,8,32,16,24,8,13 -> 13; a[1]=111
	if res.Ret != 13111 {
		t.Fatalf("ret = %d, want 13111", res.Ret)
	}
}

func TestNegativeNumbersAndShifts(t *testing.T) {
	res := run(t, `
int main() {
	int x = -16;
	int a = x >> 2;
	int b = x / 4;
	return a*100 + b;
}`)
	if res.Ret != -404 {
		t.Fatalf("ret = %d, want -404", res.Ret)
	}
}

func TestHexLiterals(t *testing.T) {
	res := run(t, `int main() { return 0xFF & 0x0F0F; }`)
	if res.Ret != 0x0F {
		t.Fatalf("ret = %d, want 15", res.Ret)
	}
}

func TestDeepLoops(t *testing.T) {
	res := run(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 5; i++)
		for (int j = 0; j < 5; j++)
			for (int k = 0; k < 5; k++)
				s += i*25 + j*5 + k;
	return s;
}`)
	if res.Ret != 7750 {
		t.Fatalf("ret = %d, want 7750", res.Ret)
	}
}
