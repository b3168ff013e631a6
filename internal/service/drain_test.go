package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fpint/internal/codegen"
)

// TestGracefulDrain pins the shutdown contract end to end: with a job
// executing and another waiting behind it, Drain lets the in-flight job
// finish with 200, sheds the waiting job with 503, refuses new admissions
// with 503, flips /healthz to draining, and returns only when the pool is
// quiet. Run under -race this is also the drain's concurrency test.
func TestGracefulDrain(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	ts := newHTTPServer(t, s)

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testCompileOptions = func(opts *codegen.Options) {
		once.Do(func() { close(started) })
		<-release
	}

	// In-flight job: blocks inside the worker until released.
	inflight := make(chan result, 1)
	go func() { inflight <- postRaw(ts, "/v1/compile", `{"source": `+jsonStr(okSrc)+`}`) }()
	<-started

	// Waiting job: admitted, and waiting for the one warm state when the
	// drain starts.
	queued := make(chan result, 1)
	go func() { queued <- postRaw(ts, "/v1/compile", `{"source": `+jsonStr(okSrc+"// q")+`}`) }()
	waitFor(t, func() bool { return s.pool.waiting() == 1 })

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitFor(t, s.Draining)

	// New admissions are refused immediately, before the pool is even
	// quiet, and health reports draining.
	if r := postRaw(ts, "/v1/compile", `{"source": `+jsonStr(okSrc+"// new")+`}`); r.status != 503 || r.class != "unavailable" {
		t.Errorf("admission during drain: %d %q, want 503 unavailable", r.status, r.class)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Errorf("healthz: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 503 {
			t.Errorf("healthz during drain = %d, want 503", resp.StatusCode)
		}
	}

	// The drain must be blocked on the in-flight job, not abandoning it.
	select {
	case <-drained:
		t.Fatal("Drain returned while a job was still executing")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the in-flight job finished")
	}

	if r := <-inflight; r.status != 200 || r.class != "none" {
		t.Errorf("in-flight job: %d %q, want 200 none (in-flight jobs drain, not die)", r.status, r.class)
	}
	if r := <-queued; r.status != 503 || r.class != "unavailable" {
		t.Errorf("waiting job: %d %q, want 503 unavailable (waiting jobs shed)", r.status, r.class)
	}

	// Drain is idempotent and the pool stays quiet.
	s.Drain()
}

// TestConcurrentDrains: two Drain calls made while one job runs and
// another waits for the pool's only warm state shed the waiting job at
// once, and both return only after the running job has finished.
func TestConcurrentDrains(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	ts := newHTTPServer(t, s)

	started := make(chan struct{})
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	var once sync.Once
	s.testCompileOptions = func(opts *codegen.Options) {
		once.Do(func() { close(started) })
		<-release
	}

	running := make(chan result, 1)
	go func() { running <- postRaw(ts, "/v1/compile", `{"source": `+jsonStr(okSrc)+`}`) }()
	<-started
	waiting := make(chan result, 1)
	go func() { waiting <- postRaw(ts, "/v1/compile", `{"source": `+jsonStr(okSrc+"// w")+`}`) }()
	waitFor(t, func() bool { return s.pool.waiting() == 1 })

	drained := make(chan struct{}, 2)
	for range 2 {
		go func() {
			s.Drain()
			drained <- struct{}{}
		}()
	}
	select {
	case r := <-waiting:
		if r.status != 503 || r.class != "unavailable" {
			t.Errorf("waiting job: %d %q, want 503 unavailable", r.status, r.class)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiting job was not shed while the running job ran")
	}
	select {
	case <-drained:
		t.Fatal("a Drain returned while a job was still running")
	case <-time.After(50 * time.Millisecond):
	}

	releaseOnce()
	for i := range 2 {
		select {
		case <-drained:
		case <-time.After(10 * time.Second):
			t.Fatalf("Drain %d did not return after the running job finished", i+1)
		}
	}
	if r := <-running; r.status != 200 || r.class != "none" {
		t.Errorf("running job: %d %q, want 200 none", r.status, r.class)
	}
}

// TestAbortCancelsInflight: a drain that ran out of grace force-cancels
// the in-flight run via its cooperative hook instead of waiting forever.
func TestAbortCancelsInflight(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := newHTTPServer(t, s)

	// A long simulate job (functional engine, ~8M steps) that the abort
	// must cut short. No test seam: the hook path is the production path.
	body := `{"source": ` + jsonStr(slowSrc) + `, "timing": "functional"}`
	done := make(chan result, 1)
	go func() { done <- postRaw(ts, "/v1/simulate", body) }()
	waitFor(t, func() bool { return s.stats.accepted.Load() == 1 })

	s.Abort()
	select {
	case r := <-done:
		if r.status != 422 || r.class != "input" {
			t.Errorf("aborted job: %d %q, want 422 input (cancelled trap)", r.status, r.class)
		}
		if !strings.Contains(r.errMsg, "cancelled") && !strings.Contains(r.errMsg, "shutting down") {
			t.Errorf("aborted job error %q does not mention cancellation", r.errMsg)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("abort did not cancel the in-flight job")
	}
	s.Drain()
}

// waiting reports the admitted jobs that hold no warm state yet.
func (p *pool) waiting() int { return len(p.slots) - (cap(p.idle) - len(p.idle)) }

// newHTTPServer wraps the server's handler in an httptest listener whose
// lifetime the test owns (drain timing is the subject here, so cleanup
// only closes the listener).
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

type result struct {
	status int
	class  string
	errMsg string
}

// postRaw sends a job and extracts (status, class, error) without
// t.Fatal — drain tests post from goroutines.
func postRaw(ts *httptest.Server, path, body string) result {
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return result{status: -1, errMsg: err.Error()}
	}
	defer resp.Body.Close()
	var doc struct {
		Class string `json:"class"`
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&doc)
	return result{status: resp.StatusCode, class: doc.Class, errMsg: doc.Error}
}
