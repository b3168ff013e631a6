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
	for _, args := range [][]string{
		{"-scheme", "warp", src},
		{"-calib-config", "4-way", src},
		// Cost constants must be finite and > 0.
		{"-odupl", "-1", src},
		{"-ocopy", "-3", "-odupl", "9", src},
		{"-ocopy", "0", src},
		{"-ocopy", "NaN", src},
		{"-odupl", "Inf", src},
		// Flags are checked before the input file is read.
		{"-scheme", "warp", "missing.c"},
		{"-odupl", "-1", "missing.c"},
	} {
		if got := exitCode(t, args...); got != 1 {
			t.Errorf("fpic %v: exit %d, want 1", args, got)
		}
	}
	if got := exitCode(t, "missing.c"); got != 2 {
		t.Errorf("fpic missing.c: exit %d, want 2", got)
	}
	badCalib := filepath.Join(t.TempDir(), "calib.json")
	doc := `{"version": "fpint-calib/v1", "configs": [{"config": "4-way", "o_copy": 4, "o_dupl": -1}]}`
	if err := os.WriteFile(badCalib, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := exitCode(t, "-S=false", "-calib", badCalib, src); got != 2 {
		t.Errorf("fpic -calib with o_dupl -1: exit %d, want 2", got)
	}
	for _, name := range codegen.SchemeNames() {
		if got := exitCode(t, "-S=false", "-scheme", name, src); got != 0 {
			t.Errorf("fpic -scheme %s: exit %d, want 0", name, got)
		}
	}
}
