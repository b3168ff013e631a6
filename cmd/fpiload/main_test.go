package main

import (
	"testing"

	"fpint/internal/fperr"
)

// A bad flag, count or mix is a usage error (exit 1), caught before any
// request is sent.
func TestExitCodes(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus-flag"},
		{"extra"},
		{"-n", "-5"},
		{"-n", "0"},
		{"-c", "0"},
		{"-c", "-2"},
		{"-mix", "bogus=1"},
		{"-mix", "ok=-1"},
	} {
		if got := fperr.ExitCode(fpiloadMain(args)); got != 1 {
			t.Errorf("fpiload %v: exit %d, want 1", args, got)
		}
	}
	if got := fperr.ExitCode(fpiloadMain([]string{"-h"})); got != 0 {
		t.Errorf("fpiload -h: exit %d, want 0", got)
	}
}
