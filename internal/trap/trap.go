// Package trap defines the structured runtime-fault taxonomy shared by the
// IR interpreter and the ISA-level simulators. Both execution engines
// surface faults (divide-by-zero, out-of-bounds memory access, step-limit
// exhaustion) as *Trap values so the differential-testing oracle can
// compare failure modes across engines by kind instead of matching error
// strings: a program that traps in the reference interpreter must trap with
// the same kind under every partition scheme.
package trap

import (
	"errors"
	"fmt"
)

// Kind classifies a runtime fault.
type Kind int

// Fault kinds. KindNone is the zero value and never appears in a real Trap.
const (
	KindNone         Kind = iota
	KindDivideByZero      // integer division or remainder with zero divisor
	KindOutOfBounds       // memory access outside the 16 MiB address space
	KindStepLimit         // dynamic instruction budget exhausted
	// KindCancelled is raised by the cooperative run hook (SetRunHook on the
	// execution engines) when an external authority — a daemon deadline, a
	// client disconnect, a shutting-down worker — aborts the run between
	// steps. It shares the watchdog discipline of KindStepLimit: the engine
	// stops at a step boundary with its state intact, and the abort surfaces
	// as a structured trap rather than a goroutine kill.
	KindCancelled
)

var kindNames = [...]string{
	KindNone:         "none",
	KindDivideByZero: "divide-by-zero",
	KindOutOfBounds:  "out-of-bounds",
	KindStepLimit:    "step-limit",
	KindCancelled:    "cancelled",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// Trap is a structured runtime fault raised by an execution engine.
type Trap struct {
	Kind   Kind
	Engine string // "interp", "sim"
	Detail string // human-readable context (function, PC, address)
}

// Error implements error.
func (t *Trap) Error() string {
	return fmt.Sprintf("%s: %s: %s", t.Engine, t.Kind, t.Detail)
}

// New builds a trap with a formatted detail string.
func New(kind Kind, engine, format string, args ...any) *Trap {
	return &Trap{Kind: kind, Engine: engine, Detail: fmt.Sprintf(format, args...)}
}

// KindOf extracts the fault kind from an error chain. It returns KindNone
// for nil errors and for errors that do not wrap a *Trap (compile errors,
// malformed programs), which the oracle treats as a distinct failure mode.
func KindOf(err error) Kind {
	var t *Trap
	if errors.As(err, &t) {
		return t.Kind
	}
	return KindNone
}
