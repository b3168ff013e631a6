package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpint/internal/codegen"
	"fpint/internal/core"
)

const okSrc = `
int acc;
int main() {
	for (int i = 1; i < 50; i++) acc = acc + i;
	return acc;
}
`

const trapSrc = `
int z;
int main() { return 7 / z; }
`

// wrapSrc indexes a word 7 bytes below MaxInt64: a bounds check written
// as addr+8 > size overflows there.
const wrapSrc = `
int a[4];
int idx = 1152921504606846974;
int main() { return a[idx]; }
`

const slowSrc = `
int acc;
int main() {
	for (int i = 0; i < 2000000; i++) acc = acc + i;
	return acc;
}
`

// newTestServer builds a server + httptest listener; the cleanup drains
// the pool so no worker goroutines outlive the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

// post sends one job and decodes the response body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, *Response, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var doc Response
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("POST %s: decode response: %v", path, err)
	}
	return resp.StatusCode, &doc, resp.Header
}

// TestJobStatuses drives every fperr class the HTTP surface can produce
// end to end and pins its status + class-name pair, including the
// degraded ladder arriving as 200.
func TestJobStatuses(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, Chaos: true})

	cases := []struct {
		name       string
		path       string
		body       string
		wantStatus int
		wantClass  string
	}{
		{"valid compile", "/v1/compile", `{"source": ` + jsonStr(okSrc) + `}`, 200, "none"},
		{"valid partition", "/v1/partition", `{"source": ` + jsonStr(okSrc) + `, "scheme": "basic"}`, 200, "none"},
		{"valid simulate functional", "/v1/simulate", `{"source": ` + jsonStr(okSrc) + `, "timing": "functional"}`, 200, "none"},
		{"valid simulate detailed 8way", "/v1/simulate", `{"source": ` + jsonStr(okSrc) + `, "config": "8way"}`, 200, "none"},
		{"malformed JSON", "/v1/compile", `{"source": "int main`, 400, "usage"},
		{"body over the bound", "/v1/compile", `{"source": "` + strings.Repeat(" ", maxBodyBytes) + `"}`, 400, "usage"},
		{"valid compile optimal", "/v1/compile", `{"source": ` + jsonStr(okSrc) + `, "scheme": "optimal"}`, 200, "none"},
		{"unknown scheme", "/v1/compile", `{"source": "int main() { return 0; }", "scheme": "warp"}`, 400, "usage"},
		{"unknown config", "/v1/simulate", `{"source": "int main() { return 0; }", "config": "16way"}`, 400, "usage"},
		{"unknown analysis", "/v1/compile", `{"source": "int main() { return 0; }", "analysis": "maybe"}`, 400, "usage"},
		{"unknown workload", "/v1/compile", `{"workload": "no-such-benchmark"}`, 400, "usage"},
		{"source and workload", "/v1/compile", `{"source": "x", "workload": "compress"}`, 400, "usage"},
		{"timing on compile", "/v1/compile", `{"source": "x", "timing": "fast"}`, 400, "usage"},
		{"trap program", "/v1/simulate", `{"source": ` + jsonStr(trapSrc) + `, "timing": "functional"}`, 422, "input"},
		{"address near MaxInt64", "/v1/compile", `{"source": ` + jsonStr(wrapSrc) + `}`, 422, "input"},
		{"over budget", "/v1/simulate", `{"source": ` + jsonStr(slowSrc) + `, "timing": "functional", "stepBudget": 1000}`, 422, "input"},
		{"deadline exceeded", "/v1/simulate", `{"source": ` + jsonStr(slowSrc) + `, "timing": "functional", "deadlineMs": 1}`, 422, "input"},
		{"panic job", "/v1/compile", `{"panic": true}`, 500, "internal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, doc, _ := post(t, ts, tc.path, tc.body)
			if status != tc.wantStatus || doc.Class != tc.wantClass {
				t.Fatalf("%s: got status=%d class=%q (err=%q), want %d %q",
					tc.name, status, doc.Class, doc.Error, tc.wantStatus, tc.wantClass)
			}
			if tc.wantStatus == 200 && tc.wantClass == "none" {
				switch tc.path {
				case "/v1/compile":
					if doc.Compile == nil || doc.Compile.Funcs["main"] == nil {
						t.Error("compile response missing the compile report")
					}
				case "/v1/partition":
					if doc.Partition == nil || doc.Partition.Funcs["main"] == nil {
						t.Error("partition response missing the audit view")
					}
				case "/v1/simulate":
					if doc.Simulate == nil || len(doc.Simulate.Metrics) == 0 {
						t.Error("simulate response missing the metrics document")
					}
				}
			}
		})
	}

	// Degraded ladder over HTTP: force the advanced scheme to fail with
	// the same synthetic partitioner bug the codegen ladder tests use;
	// the response must be 200 with degraded=true, never an error status.
	t.Run("degraded compile", func(t *testing.T) {
		s2, ts2 := newTestServer(t, Options{Workers: 1})
		s2.testCompileOptions = func(opts *codegen.Options) {
			user := opts.PartitionHook
			opts.PartitionHook = func(fn string, part *core.Partition) {
				if user != nil {
					user(fn, part)
				}
				if part.Scheme == "advanced" {
					panic("synthetic partitioner bug")
				}
			}
		}
		// Decode loosely: codegen.Fallback marshals schemes by name and has
		// no unmarshaller.
		resp, err := http.Post(ts2.URL+"/v1/compile", "application/json", strings.NewReader(`{"source": `+jsonStr(okSrc)+`}`))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var doc struct {
			Class    string `json:"class"`
			Degraded bool   `json:"degraded"`
			Compile  struct {
				Fallback *struct {
					Requested string `json:"requested"`
					Used      string `json:"used"`
				} `json:"fallback"`
			} `json:"compile"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if resp.StatusCode != 200 || doc.Class != "degraded" || !doc.Degraded {
			t.Fatalf("degraded compile: status=%d class=%q degraded=%v, want 200 degraded true", resp.StatusCode, doc.Class, doc.Degraded)
		}
		if doc.Compile.Fallback == nil || doc.Compile.Fallback.Used != "basic" || doc.Compile.Fallback.Requested != "advanced" {
			t.Errorf("degraded response fallback record = %+v, want advanced→basic", doc.Compile.Fallback)
		}
	})

	// The panic was recovered, counted, and the server kept serving.
	if got := s.stats.panics.Load(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
	if status, doc, _ := post(t, ts, "/v1/compile", `{"source": `+jsonStr(okSrc)+`}`); status != 200 {
		t.Errorf("server unhealthy after recovered panic: %d %q", status, doc.Error)
	}
}

// TestPanicRequiresChaos: without -chaos the fault-injection surface is a
// usage error, not an honored panic.
func TestPanicRequiresChaos(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	status, doc, _ := post(t, ts, "/v1/compile", `{"panic": true}`)
	if status != 400 || doc.Class != "usage" {
		t.Fatalf("panic without chaos: got %d %q, want 400 usage", status, doc.Class)
	}
}

// TestCacheServesRepeats: the second identical job is a cache hit whose
// body is the miss's, byte for byte, but for the cached flag. Both bodies
// are compact JSON ending in one newline.
func TestCacheServesRepeats(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	body := `{"source": ` + jsonStr(okSrc) + `, "timing": "functional"}`
	miss, hit := postBody(t, ts, "/v1/simulate", body), postBody(t, ts, "/v1/simulate", body)
	for _, raw := range [][]byte{miss, hit} {
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatalf("body is not JSON: %v\n%s", err, raw)
		}
		compact.WriteByte('\n')
		if !bytes.Equal(raw, compact.Bytes()) {
			t.Errorf("body is not compact JSON and one newline:\n%s", raw)
		}
	}
	var missDoc, doc Response
	if err := json.Unmarshal(miss, &missDoc); err != nil || missDoc.Cached {
		t.Fatalf("miss body decodes to cached=%v (err %v), want false", missDoc.Cached, err)
	}
	if want := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1); !bytes.Equal(hit, want) {
		t.Errorf("hit body is not the miss body with cached set:\nmiss %s\nhit  %s", miss, hit)
	}
	if err := json.Unmarshal(hit, &doc); err != nil || !doc.Cached || doc.Key == "" || doc.Simulate == nil {
		t.Errorf("hit body decodes to cached=%v, key %q, simulate %v (err %v), want all set", doc.Cached, doc.Key, doc.Simulate, err)
	}
	if hits := s.stats.cacheHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

// postBody sends one job that must answer 200 and returns the raw body.
func postBody(t *testing.T, ts *httptest.Server, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, raw)
	}
	return raw
}

// TestSingleflightDedup: concurrent identical jobs execute once. Run with
// -race this also exercises the cache's flight bookkeeping under
// contention.
func TestSingleflightDedup(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 64})
	var executions atomic.Int64
	s.testCompileOptions = func(opts *codegen.Options) { executions.Add(1) }

	const clients = 16
	body := `{"source": ` + jsonStr(okSrc) + `, "scheme": "basic"}`
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			var doc Response
			json.NewDecoder(resp.Body).Decode(&doc)
			if resp.StatusCode != 200 || doc.Class != "none" {
				errs <- fmt.Sprintf("status=%d class=%q", resp.StatusCode, doc.Class)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent job failed: %s", e)
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("identical concurrent jobs compiled %d times, want 1 (singleflight + cache)", got)
	}
}

// TestLoadShedding: a one-worker pool whose only worker is wedged sheds
// overflow with 503 + Retry-After once the queue fills.
func TestLoadShedding(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, Chaos: true})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testCompileOptions = func(opts *codegen.Options) {
		once.Do(func() { close(started) })
		<-release
	}
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	// Wedge the worker.
	wedged := make(chan *Response, 1)
	go func() {
		_, doc, _ := post(t, ts, "/v1/compile", `{"source": `+jsonStr(okSrc)+`}`)
		wedged <- doc
	}()
	<-started

	// Fill the single queue slot.
	queued := make(chan *Response, 1)
	go func() {
		_, doc, _ := post(t, ts, "/v1/compile", `{"source": `+jsonStr(okSrc+"// b")+`}`)
		queued <- doc
	}()
	waitFor(t, func() bool { return len(s.pool.queue) == 1 })

	// The next distinct job must shed.
	status, doc, hdr := post(t, ts, "/v1/compile", `{"source": `+jsonStr(okSrc+"// c")+`}`)
	if status != 503 || doc.Class != "unavailable" {
		t.Fatalf("overflow job: got %d %q, want 503 unavailable", status, doc.Class)
	}
	if got, want := hdr.Get("Retry-After"), fmt.Sprint(retryAfterSec); got != want {
		t.Errorf("Retry-After = %q, want %q", got, want)
	}
	if s.stats.shed.Load() == 0 {
		t.Error("shed counter did not move")
	}

	close(release)
	if doc := <-wedged; doc.Class != "none" {
		t.Errorf("wedged job finished %q, want none", doc.Class)
	}
	if doc := <-queued; doc.Class != "none" {
		t.Errorf("queued job finished %q, want none", doc.Class)
	}
}

// TestIdleWorkerTakesNextJob: while one of two workers is wedged, distinct
// jobs sent one after another all complete on the other. A pool that
// routed jobs to workers by key would park about half of them behind the
// wedge.
func TestIdleWorkerTakesNextJob(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	var calls atomic.Int64
	s.testCompileOptions = func(opts *codegen.Options) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
		}
	}

	wedged := make(chan result, 1)
	go func() { wedged <- postRaw(ts, "/v1/compile", `{"source": `+jsonStr(okSrc)+`}`) }()
	<-started

	for i := range 8 {
		done := make(chan result, 1)
		body := `{"source": ` + jsonStr(fmt.Sprintf("%s// %d", okSrc, i)) + `}`
		go func() { done <- postRaw(ts, "/v1/compile", body) }()
		select {
		case r := <-done:
			if r.status != 200 || r.class != "none" {
				t.Fatalf("job %d: %d %q (%s), want 200 none", i, r.status, r.class, r.errMsg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d waited behind the wedged worker while the other was idle", i)
		}
	}

	releaseOnce()
	if r := <-wedged; r.status != 200 || r.class != "none" {
		t.Errorf("wedged job: %d %q, want 200 none", r.status, r.class)
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// jsonStr encodes s as a JSON string literal.
func jsonStr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
