package main

import (
	"os"
	"path/filepath"
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/fperr"
)

// exitCode runs fpicMain with stdout discarded and returns its exit code.
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
	return fperr.ExitCode(fpicMain(args))
}

func TestNameExitCodes(t *testing.T) {
	src := filepath.Join("..", "..", "testdata", "sieve.c")
	for _, args := range [][]string{{"-scheme", "warp", src}, {"-calib-config", "4-way", src}} {
		if got := exitCode(t, args...); got != 1 {
			t.Errorf("fpic %v: exit %d, want 1", args, got)
		}
	}
	for _, name := range codegen.SchemeNames() {
		if got := exitCode(t, "-S=false", "-scheme", name, src); got != 0 {
			t.Errorf("fpic -scheme %s: exit %d, want 0", name, got)
		}
	}
}
