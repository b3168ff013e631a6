package fperr

import "testing"

// TestEveryClassHasHTTPStatus pins the no-silent-default contract: every
// defined class must carry an explicit HTTP status in the table. A new
// class added without a status entry leaves a zero in the array, which
// this test — not a runtime 500 — catches.
func TestEveryClassHasHTTPStatus(t *testing.T) {
	valid := map[int]bool{200: true, 400: true, 422: true, 500: true, 503: true}
	for c := ClassNone; c < numClasses; c++ {
		s := classHTTPStatus[c]
		if s == 0 {
			t.Errorf("class %s has no HTTP status entry", c)
		}
		if !valid[s] {
			t.Errorf("class %s maps to unexpected status %d", c, s)
		}
		if got := c.HTTPStatus(); got != s {
			t.Errorf("HTTPStatus(%s) = %d, want table entry %d", c, got, s)
		}
	}
	// Every defined class must also have a real name — the name travels in
	// response bodies and the two tables must stay in lockstep.
	for c := ClassNone; c < numClasses; c++ {
		if classNames[c] == "" {
			t.Errorf("class %d has no name", int(c))
		}
	}
}

// TestHTTPStatusValues pins the documented mapping byte for byte; the
// README's error-status table and the loadgen's expectations derive from
// it.
func TestHTTPStatusValues(t *testing.T) {
	want := map[Class]int{
		ClassNone:        200,
		ClassUsage:       400,
		ClassInput:       422,
		ClassInternal:    500,
		ClassDegraded:    200,
		ClassRegression:  500,
		ClassUnavailable: 503,
	}
	if len(want) != int(numClasses) {
		t.Fatalf("test covers %d classes, %d defined — extend the table", len(want), numClasses)
	}
	for c, s := range want {
		if got := c.HTTPStatus(); got != s {
			t.Errorf("HTTPStatus(%s) = %d, want %d", c, got, s)
		}
	}
	if got := Class(99).HTTPStatus(); got != 500 {
		t.Errorf("undefined class status = %d, want conservative 500", got)
	}
}

// TestClassNamesDistinct: the class name carried in a response body
// must name exactly one class, so every defined class has its own
// non-empty name.
func TestClassNamesDistinct(t *testing.T) {
	seen := map[string]Class{}
	for _, c := range Classes() {
		name := c.String()
		if name == "" {
			t.Errorf("class %d has an empty name", int(c))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("classes %d and %d share the name %q", int(prev), int(c), name)
		}
		seen[name] = c
	}
}

// TestUnavailableExitCode: the service-side class still honors the CLI
// exit-code contract (fpiload exits 6 when the run was shed wholesale).
func TestUnavailableExitCode(t *testing.T) {
	if got := ExitCode(New(ClassUnavailable, "queue full")); got != 6 {
		t.Errorf("ExitCode(unavailable) = %d, want 6", got)
	}
	if ClassUnavailable.String() != "unavailable" {
		t.Errorf("name = %q", ClassUnavailable.String())
	}
}
