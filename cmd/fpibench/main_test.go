package main

import (
	"os"
	"path/filepath"
	"testing"

	"fpint/internal/fperr"
)

// exitCode runs fpibenchMain with stdout discarded and returns its exit
// code.
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
	return fperr.ExitCode(fpibenchMain(args))
}

// Every flag is checked before any experiment runs: a bad flag or value
// is a usage error (exit 1), not the flag package's exit 2 and not a
// failed experiment.
func TestExitCodes(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus-flag"},
		{"-table1", "extra"},
		{"-phases", "-phase-width", "0"},
		{"-phases", "-phase-width", "-5"},
		{"-fast-period", "-1"},
		{"-fault-rate", "2"},
		{"-fast", "-faultsweep"},
		{"-calib-out", "c.json"},
	} {
		if got := exitCode(t, args...); got != 1 {
			t.Errorf("fpibench %v: exit %d, want 1", args, got)
		}
	}
	unwritable := filepath.Join(t.TempDir(), "missing", "r.json")
	if got := exitCode(t, "-table1", "-json", unwritable); got != 2 {
		t.Errorf("fpibench -json %s: exit %d, want 2", unwritable, got)
	}
	for _, args := range [][]string{{"-h"}, {"-table1", "-table2"}} {
		if got := exitCode(t, args...); got != 0 {
			t.Errorf("fpibench %v: exit %d, want 0", args, got)
		}
	}
}
