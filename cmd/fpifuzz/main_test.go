package main

import (
	"os"
	"testing"

	"fpint/internal/fperr"
)

// exitCode runs fpifuzzMain with stdout discarded and returns its exit
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
	return fperr.ExitCode(fpifuzzMain(args))
}

// A bad flag or count is a usage error (exit 1) before any program is
// generated; a sweep that checks nothing is not a clean sweep.
func TestExitCodes(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus-flag"},
		{"extra"},
		{"-n", "-3"},
		{"-n", "0"},
		{"-stmts", "-5"},
		{"-analysis", "maybe"},
		{"-fast", "-timing=false"},
		{"-faults", "-fault-rate", "0"},
	} {
		if got := exitCode(t, args...); got != 1 {
			t.Errorf("fpifuzz %v: exit %d, want 1", args, got)
		}
	}
	for _, args := range [][]string{{"-h"}, {"-n", "2", "-timing=false", "-optimal=false", "-out", t.TempDir()}} {
		if got := exitCode(t, args...); got != 0 {
			t.Errorf("fpifuzz %v: exit %d, want 0", args, got)
		}
	}
}
