// Package fperr defines the toolchain-wide structured error taxonomy and
// the exit-code contract shared by the fpic, fpisim, fpibench, and fpifuzz
// commands. Every CLI failure is classified into one of four classes and
// mapped to a documented process exit code, replacing the historical
// ad-hoc os.Exit scatter:
//
//	0  success
//	1  usage error        (bad flags or arguments)
//	2  input error        (unreadable, malformed, or misbehaving input program)
//	3  internal error     (toolchain bug: invalid partition, codegen panic, ...)
//	4  degraded-but-succeeded (a compile fell down the degradation ladder
//	   but still produced a correct program)
//	5  performance regression (a gate comparison found guest cycles or host
//	   metrics worse than the baseline beyond tolerance; the code is
//	   functionally correct)
//	6  unavailable (a service refused the work: queue saturated or the
//	   process is draining; retrying later is expected to succeed)
//
// Errors carry their class through wrapping, so deep layers can classify
// once (e.g. the partition verifier tags its report as internal) and the
// CLI rim only calls ExitCode.
//
// The fpintd daemon reuses the same taxonomy over HTTP: every class maps
// to exactly one response status via HTTPStatus, pinned by a unit test so
// a newly added class cannot silently fall through to a default 500.
package fperr

import (
	"errors"
	"fmt"
)

// Class partitions failures by who is at fault and how the process exits.
type Class int

// Error classes, ordered by exit code.
const (
	// ClassNone is the zero value: no failure (exit 0). Never attach it to
	// a real error.
	ClassNone Class = iota
	// ClassUsage: the command line itself is wrong (exit 1).
	ClassUsage
	// ClassInput: the input program is unreadable, malformed, or trapped at
	// run time (exit 2).
	ClassInput
	// ClassInternal: the toolchain itself misbehaved — a partitioner emitted
	// an invalid assignment, a backend panicked, an invariant broke (exit 3).
	ClassInternal
	// ClassDegraded: compilation succeeded only after falling down the
	// degradation ladder (exit 4). The output is correct; the class exists
	// so scripts can detect silent scheme downgrades.
	ClassDegraded
	// ClassRegression: a performance gate found the current run worse than
	// its baseline beyond tolerance (exit 5). Everything is functionally
	// correct — the distinct class lets CI tell "the change is slow" apart
	// from "the toolchain is broken".
	ClassRegression
	// ClassUnavailable: a service declined the work without attempting it —
	// the admission queue is full or the process is draining for shutdown
	// (exit 6, HTTP 503). The request itself may be perfectly valid;
	// retrying after backoff is the expected recovery.
	ClassUnavailable

	// numClasses bounds the defined classes; the status and name tables are
	// sized by it so adding a class without extending them is a compile- or
	// test-time failure, never a silent default.
	numClasses
)

var classNames = [numClasses]string{
	ClassNone:        "none",
	ClassUsage:       "usage",
	ClassInput:       "input",
	ClassInternal:    "internal",
	ClassDegraded:    "degraded",
	ClassRegression:  "regression",
	ClassUnavailable: "unavailable",
}

// String names the class.
func (c Class) String() string {
	if int(c) >= 0 && int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class-%d", int(c))
}

// Error is a classified, wrapped error.
type Error struct {
	Class Class
	Err   error
}

// Error implements error.
func (e *Error) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// New builds a classified error from a format string.
func New(class Class, format string, args ...any) *Error {
	return &Error{Class: class, Err: fmt.Errorf(format, args...)}
}

// Wrap attaches a class to err, preserving the chain. Wrapping nil returns
// nil; wrapping an already-classified error keeps the innermost (first
// assigned) class, so rims cannot accidentally launder an internal error
// into an input error.
func Wrap(class Class, err error) error {
	if err == nil {
		return nil
	}
	if ClassOf(err) != ClassNone {
		return err
	}
	return &Error{Class: class, Err: err}
}

// Wrapf wraps err with a message prefix and a class (same keep-innermost
// rule as Wrap for pre-classified errors).
func Wrapf(class Class, err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	wrapped := fmt.Errorf(format+": %w", append(args, err)...)
	if ClassOf(err) != ClassNone {
		return wrapped
	}
	return &Error{Class: class, Err: wrapped}
}

// ClassOf extracts the class from an error chain; ClassNone for nil or
// unclassified errors.
func ClassOf(err error) Class {
	var e *Error
	if errors.As(err, &e) {
		return e.Class
	}
	return ClassNone
}

// ExitCode maps an error to the documented process exit code. Unclassified
// non-nil errors are conservatively treated as internal.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	switch ClassOf(err) {
	case ClassNone:
		return 3 // unclassified failure: assume a toolchain bug
	case ClassUsage:
		return 1
	case ClassInput:
		return 2
	case ClassInternal:
		return 3
	case ClassDegraded:
		return 4
	case ClassRegression:
		return 5
	case ClassUnavailable:
		return 6
	}
	return 3
}

// classHTTPStatus is the daemon's class → HTTP status contract. Degraded
// intentionally shares 200 with success: the degradation ladder produced a
// correct program, and the response body's "degraded" field carries the
// distinction — an HTTP error status would make every retrying client
// re-submit work that already succeeded.
var classHTTPStatus = [numClasses]int{
	ClassNone:        200,
	ClassUsage:       400, // the request itself is malformed
	ClassInput:       422, // well-formed request, misbehaving program (incl. traps and blown budgets)
	ClassInternal:    500, // toolchain bug (incl. recovered worker panics)
	ClassDegraded:    200, // succeeded via the fallback ladder; body carries degraded=true
	ClassRegression:  500, // gate classes never cross the service boundary; treat as internal
	ClassUnavailable: 503, // load shed or draining; Retry-After accompanies it
}

// HTTPStatus maps the class to its daemon response status. Classes outside
// the defined range (which New/Wrap never produce) report 500, matching
// ExitCode's assume-a-bug conservatism.
func (c Class) HTTPStatus() int {
	if c >= 0 && c < numClasses {
		if s := classHTTPStatus[c]; s != 0 {
			return s
		}
	}
	return 500
}

// Classes returns every defined class in order. Consumers that keep
// per-class tables (the daemon's outcome counters, the loadgen's expected
// statuses) iterate this instead of hard-coding the list, so a new class
// reaches them automatically.
func Classes() []Class {
	out := make([]Class, 0, int(numClasses))
	for c := ClassNone; c < numClasses; c++ {
		out = append(out, c)
	}
	return out
}
