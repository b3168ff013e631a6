package bench

import (
	"testing"

	"fpint/internal/interp"
	"fpint/internal/sim"
)

// The one functional check behind every timed and functional-only run
// compares the printed output as well as the value main returned.
func TestCheckComparesOutput(t *testing.T) {
	fr := &frontRes{ref: &interp.Result{Ret: 42, Output: "1 2 3\n"}}
	if err := fr.check(&sim.Result{Ret: 42, Output: "1 2 3\n"}); err != nil {
		t.Fatalf("matching result rejected: %v", err)
	}
	if err := fr.check(&sim.Result{Ret: 42, Output: "1 2 4\n"}); err == nil {
		t.Error("result with the right return value and a different output passed the check")
	}
	if err := fr.check(&sim.Result{Ret: 41, Output: "1 2 3\n"}); err == nil {
		t.Error("result with a different return value passed the check")
	}
}
