package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestEmptyRegistryEncoding pins the encoders' behavior with nothing
// registered: both must emit a complete, parseable document rather than
// truncated output or a panic — consumers diff these files byte-for-byte.
func TestEmptyRegistryEncoding(t *testing.T) {
	r := NewRegistry()

	var jbuf strings.Builder
	if err := r.WriteJSON(&jbuf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(jbuf.String()), &doc); err != nil {
		t.Fatalf("empty-registry JSON does not parse: %v\n%s", err, jbuf.String())
	}

	var cbuf strings.Builder
	if err := r.WriteCSV(&cbuf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.HasSuffix(cbuf.String(), "\n") && cbuf.Len() > 0 {
		t.Fatalf("empty-registry CSV not newline-terminated: %q", cbuf.String())
	}
}

// TestZeroEventTrace pins the trace encoder on an empty event list: a valid
// document with an empty traceEvents array, loadable by the viewers.
func TestZeroEventTrace(t *testing.T) {
	var buf strings.Builder
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("zero-event trace does not parse: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("zero-event trace has %d events", len(doc.TraceEvents))
	}
}

// TestConcurrentRegistries exercises metric registration and updates from
// many goroutines under -race. Registry is documented as not safe for
// concurrent use, so the concurrency contract is registry-per-goroutine;
// this pins that pattern really is race-free (no hidden shared state, e.g.
// package-level interning) rather than racing on one shared registry.
func TestConcurrentRegistries(t *testing.T) {
	var wg sync.WaitGroup
	regs := make([]*Registry, 8)
	for i := range regs {
		i := i
		regs[i] = NewRegistry()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := regs[i]
			for j := 0; j < 1000; j++ {
				r.Counter("shared_name").Add(1)
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", []float64{1, 10, 100}).ObserveN(float64(j%128), 1)
			}
		}()
	}
	wg.Wait()
	for i, r := range regs {
		if got := r.Counter("shared_name").v; got != 1000 {
			t.Fatalf("registry %d: counter = %d, want 1000", i, got)
		}
	}
}

// TestConcurrentRegistrationWithLock pins the other documented pattern: one
// shared registry behind a caller-owned mutex. Under -race this fails if
// any registry path touches state outside the lock.
func TestConcurrentRegistrationWithLock(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				mu.Lock()
				r.Counter("total").Add(2)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("total").v; got != 8*500*2 {
		t.Fatalf("counter = %d, want %d", got, 8*500*2)
	}
}
