package main

import (
	"testing"

	"fpint/internal/fperr"
)

// A bad flag or a pool size below one is a usage error (exit 1), caught
// before the daemon listens.
func TestExitCodes(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus-flag"},
		{"extra"},
		{"-workers", "0"},
		{"-queue", "-1"},
		{"-cache", "0"},
	} {
		if got := fperr.ExitCode(fpintdMain(args)); got != 1 {
			t.Errorf("fpintd %v: exit %d, want 1", args, got)
		}
	}
	if got := fperr.ExitCode(fpintdMain([]string{"-h"})); got != 0 {
		t.Errorf("fpintd -h: exit %d, want 0", got)
	}
}
