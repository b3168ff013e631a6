package main

import (
	"os"
	"path/filepath"
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/fperr"
)

// exitCode runs fpisimMain with stdout discarded and returns its exit code.
func exitCode(t *testing.T, args ...string) int {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = null
	defer func() {
		os.Stdout = stdout
		null.Close()
	}()
	return fperr.ExitCode(fpisimMain(args))
}

func TestNameExitCodes(t *testing.T) {
	src := filepath.Join("..", "..", "testdata", "sieve.c")
	for _, args := range [][]string{
		{"-scheme", "warp", src},
		{"-config", "16way", src},
		// Flags are checked before the input file is read.
		{"-scheme", "warp", "missing.c"},
		{"-config", "16way", "missing.c"},
		{"-analysis", "maybe", "missing.c"},
		{"-inject-fault", "bogus", "missing.c"},
		// Negative counts and widths are usage errors, not the default.
		{"-fast", "-fast-period", "-3", "-workload", "li"},
		{"-fast", "-fast-width", "-1", "missing.c"},
		{"-timeline-width", "-5", "missing.c"},
		{"-timing", "-pipetrace", "-1", "missing.c"},
	} {
		if got := exitCode(t, args...); got != 1 {
			t.Errorf("fpisim %v: exit %d, want 1", args, got)
		}
	}
	if got := exitCode(t, "missing.c"); got != 2 {
		t.Errorf("fpisim missing.c: exit %d, want 2", got)
	}
	for _, name := range codegen.SchemeNames() {
		if got := exitCode(t, "-timing", "-scheme", name, src); got != 0 {
			t.Errorf("fpisim -scheme %s: exit %d, want 0", name, got)
		}
	}
}
