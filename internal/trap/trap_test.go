package trap_test

import (
	"errors"
	"fmt"
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/interp"
	"fpint/internal/sim"
	"fpint/internal/trap"
)

// trapCases maps each real trap kind to a program that raises it. The
// step-limit case loops forever and is bounded by the watchdog instead of
// by the program.
var trapCases = []struct {
	kind trap.Kind
	name string
	src  string
}{
	{trap.KindDivideByZero, "div", `
int z;
int main() { return 7 / z; }`},
	{trap.KindDivideByZero, "rem", `
int z;
int main() { return 7 % z; }`},
	{trap.KindOutOfBounds, "load", `
int a[4];
int idx = 1073741824;
int main() { return a[idx]; }`},
	{trap.KindOutOfBounds, "store", `
int a[4];
int idx = 1073741824;
int main() { a[idx] = 1; return 0; }`},
	// a[idx] sits 7 bytes below MaxInt64, where addr+8 wraps negative.
	{trap.KindOutOfBounds, "load-maxint", `
int a[4];
int idx = 1152921504606846974;
int main() { return a[idx]; }`},
	{trap.KindOutOfBounds, "store-maxint", `
int a[4];
int idx = 1152921504606846974;
int main() { a[idx] = 1; return 0; }`},
	{trap.KindStepLimit, "loop", `
int main() {
	int x = 0;
	while (1) { x = x + 1; }
	return x;
}`},
}

const stepLimit = 50_000

// TestTrapKindsRoundTrip is the cross-engine classification contract:
// every trap kind raised by the reference interpreter must be raised with
// the identical kind by the functional simulator under every partition
// scheme, including the step-limit watchdog, which is a property of the
// engine rather than of the program.
func TestTrapKindsRoundTrip(t *testing.T) {
	schemes := []codegen.Scheme{codegen.SchemeNone, codegen.SchemeBasic, codegen.SchemeAdvanced}
	for _, tc := range trapCases {
		t.Run(fmt.Sprintf("%s-%s", tc.kind, tc.name), func(t *testing.T) {
			mod, err := codegen.Frontend(tc.src, nil)
			if err != nil {
				t.Fatalf("frontend: %v", err)
			}

			im := interp.New(mod)
			im.SetStepLimit(stepLimit)
			_, ierr := im.Run()
			if got := trap.KindOf(ierr); got != tc.kind {
				t.Fatalf("interp classified %v (err=%v), want %v", got, ierr, tc.kind)
			}
			var it *trap.Trap
			if !errors.As(ierr, &it) || it.Engine != "interp" {
				t.Fatalf("interp trap does not carry its engine: %v", ierr)
			}

			for _, scheme := range schemes {
				res, err := codegen.Compile(mod, codegen.Options{Scheme: scheme})
				if err != nil {
					t.Fatalf("%v: compile: %v", scheme, err)
				}
				m := sim.New(res.Prog)
				// The simulator executes machine code, which expands IR
				// operations; the oracle's 8x budget keeps the two watchdogs
				// ordered so a step-limit in interp is one in sim too.
				m.SetStepLimit(stepLimit * 8)
				_, serr := m.Run()
				if got := trap.KindOf(serr); got != tc.kind {
					t.Fatalf("%v: sim classified %v (err=%v), want %v", scheme, got, serr, tc.kind)
				}
				var st *trap.Trap
				if !errors.As(serr, &st) || st.Engine != "sim" {
					t.Fatalf("%v: sim trap does not carry its engine: %v", scheme, serr)
				}
			}
		})
	}
}

// TestKindOfUnwrapsChains: KindOf must see through error wrapping and
// return KindNone for nil and for non-trap errors.
func TestKindOfUnwrapsChains(t *testing.T) {
	base := trap.New(trap.KindOutOfBounds, "sim", "address %d", 1234)
	wrapped := fmt.Errorf("while checking: %w", base)
	doubly := fmt.Errorf("outer: %w", wrapped)
	for _, err := range []error{base, wrapped, doubly} {
		if got := trap.KindOf(err); got != trap.KindOutOfBounds {
			t.Errorf("KindOf(%v) = %v, want out-of-bounds", err, got)
		}
	}
	if got := trap.KindOf(nil); got != trap.KindNone {
		t.Errorf("KindOf(nil) = %v, want none", got)
	}
	if got := trap.KindOf(errors.New("plain")); got != trap.KindNone {
		t.Errorf("KindOf(plain) = %v, want none", got)
	}
}

// TestTrapStringsStable: kind names are part of the crasher-report format.
func TestTrapStringsStable(t *testing.T) {
	want := map[trap.Kind]string{
		trap.KindNone:         "none",
		trap.KindDivideByZero: "divide-by-zero",
		trap.KindOutOfBounds:  "out-of-bounds",
		trap.KindStepLimit:    "step-limit",
		trap.KindCancelled:    "cancelled",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), name)
		}
	}
	tr := trap.New(trap.KindDivideByZero, "interp", "in %s", "main")
	if tr.Error() != "interp: divide-by-zero: in main" {
		t.Errorf("unexpected Error(): %q", tr.Error())
	}
}
