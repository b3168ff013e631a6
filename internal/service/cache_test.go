package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"fpint/internal/fperr"
)

// len reports the live entry count.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// tamper mutates the stored entry for key through fn, resealing nothing —
// the seal is left stale on purpose.
func (c *cache) tamper(key string, fn func(*Artifact)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.entries[key]
	if ok {
		fn(a)
	}
	return ok
}

// TestCacheKeyStability pins the content address of a fixed job to a
// literal. The key is the cache's identity across process restarts and
// the dedup boundary between daemons; an accidental change to the key
// recipe (field order, a forgotten field, a changed prefix) breaks this
// literal, not production hit rates.
func TestCacheKeyStability(t *testing.T) {
	j, err := parseRequest(KindSimulate, &Request{
		Source: "int main() { return 42; }",
		Scheme: "advanced",
		Config: "8way",
		Timing: "fast",
	})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	const want = "33b064d407417f9a037c9fddbb29a8e1e2bacb10617b6f1c49524485a510ee27"
	if got := j.cacheKey(); got != want {
		t.Errorf("cacheKey = %q, want pinned %q", got, want)
	}
}

// TestCacheKeySensitivity: every content field must move the key, and the
// deadline must not (it is policy, not content).
func TestCacheKeySensitivity(t *testing.T) {
	base := Request{Source: "int main() { return 0; }", Scheme: "advanced", Config: "4way", Timing: "detailed"}
	key := func(kind string, req Request) string {
		t.Helper()
		j, err := parseRequest(kind, &req)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return j.cacheKey()
	}
	ref := key(KindSimulate, base)

	mutations := map[string]string{}
	{
		r := base
		r.Source = "int main() { return 1; }"
		mutations["source"] = key(KindSimulate, r)
	}
	{
		r := base
		r.Scheme = "basic"
		mutations["scheme"] = key(KindSimulate, r)
	}
	{
		r := base
		r.Config = "8way"
		mutations["config"] = key(KindSimulate, r)
	}
	{
		r := base
		r.Analysis = "on"
		mutations["analysis"] = key(KindSimulate, r)
	}
	{
		r := base
		r.Timing = "fast"
		mutations["timing"] = key(KindSimulate, r)
	}
	{
		r := base
		r.StepBudget = 5000
		mutations["stepBudget"] = key(KindSimulate, r)
	}
	mutations["kind"] = key(KindCompile, Request{Source: base.Source, Scheme: base.Scheme, Config: base.Config})

	seen := map[string]string{ref: "base"}
	for field, k := range mutations {
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s did not change the key (collides with %s)", field, prev)
		}
		seen[k] = field
	}

	r := base
	r.DeadlineMS = 250
	if key(KindSimulate, r) != ref {
		t.Error("deadline changed the cache key; deadlines are policy, not content, and must share entries")
	}
}

// TestCacheTamperRefusal: a sealed entry whose content was mutated behind
// the cache's back is refused, evicted, counted, and recomputed — the
// runstore contract applied to the artifact cache.
func TestCacheTamperRefusal(t *testing.T) {
	st := newStats()
	c := newCache(8, st)
	art := newArtifact("k1", fperr.ClassNone, &Response{Schema: ResponseSchema, Kind: KindCompile, Key: "k1", Class: "none"})
	computes := 0
	compute := func() (*Artifact, error) { computes++; return art, nil }

	if _, cached, _ := c.do("k1", true, compute); cached {
		t.Fatal("first do() reported a cache hit")
	}
	if _, cached, _ := c.do("k1", true, compute); !cached {
		t.Fatal("second do() missed")
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}

	// Flip one byte of the sealed body.
	if !c.tamper("k1", func(a *Artifact) { a.Body[len(a.Body)/2] ^= 1 }) {
		t.Fatal("entry to tamper not found")
	}

	fresh := newArtifact("k1", fperr.ClassNone, &Response{Schema: ResponseSchema, Kind: KindCompile, Key: "k1", Class: "none"})
	compute2 := func() (*Artifact, error) { computes++; return fresh, nil }
	got, cached, _ := c.do("k1", true, compute2)
	if cached {
		t.Error("tampered entry was served from cache")
	}
	if computes != 2 {
		t.Errorf("tampered entry did not trigger recomputation (computes=%d)", computes)
	}
	var doc Response
	if err := json.Unmarshal(got.Body, &doc); err != nil || doc.Class != "none" {
		t.Errorf("served class %q (err %v) from tampered entry", doc.Class, err)
	}
	if st.cacheTampered.Load() != 1 {
		t.Errorf("cacheTampered = %d, want 1", st.cacheTampered.Load())
	}
	// The recomputed artifact replaced the tampered one and verifies.
	if _, cached, _ := c.do("k1", true, func() (*Artifact, error) { t.Fatal("unexpected recompute"); return nil, nil }); !cached {
		t.Error("recomputed entry not served from cache")
	}
}

// TestCacheHitAllocsPerHit: a cache hit decodes and encodes nothing. Its
// seal check hashes the stored bytes and writeResponse sends them back
// with the cached flag set, so a hit on li's compile report allocates as
// little as a hit on a bare envelope two hundred times smaller.
func TestCacheHitAllocsPerHit(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain()
	w := discardWriter{http.Header{}}
	hitAllocs := func(key string, compute func() (*Artifact, error)) (float64, int) {
		t.Helper()
		art, _, err := s.cache.do(key, true, compute)
		if err != nil || art.Class != fperr.ClassNone {
			t.Fatalf("compute %s: %v, class %v", key, err, art.Class)
		}
		misses := 0
		allocs := testing.AllocsPerRun(20, func() {
			a, cached, _ := s.cache.do(key, true, compute)
			if !cached {
				misses++
			}
			s.writeResponse(w, a, cached)
		})
		if misses > 0 {
			t.Fatalf("%s: %d of the measured lookups missed", key, misses)
		}
		return allocs, len(art.Body)
	}

	j, err := parseRequest(KindCompile, &Request{Workload: "li"})
	if err != nil {
		t.Fatal(err)
	}
	liKey := j.cacheKey()
	li, liSize := hitAllocs(liKey, func() (*Artifact, error) {
		return s.pool.run(func(ws *workerState) *Artifact { return s.execute(j, liKey, ws) })
	})
	// The bare envelope is keyed like a real job: the hash reads the key.
	bareKey := strings.Repeat("0", len(liKey))
	bare, bareSize := hitAllocs(bareKey, func() (*Artifact, error) {
		return newArtifact(bareKey, fperr.ClassNone, &Response{Schema: ResponseSchema, Kind: KindCompile, Key: bareKey, Class: "none"}), nil
	})
	if liSize < 100*bareSize {
		t.Fatalf("li's compile body is %d bytes and the bare one %d; want li's a hundred times larger", liSize, bareSize)
	}
	if li != bare || li > 8 {
		t.Errorf("a hit allocates %v times on li's %d-byte body and %v on a %d-byte one; want the same, at most 8",
			li, liSize, bare, bareSize)
	}
}

// discardWriter is a ResponseWriter that drops what it is sent.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header       { return w.h }
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) WriteHeader(int)             {}

// TestCacheDoesNotStoreErrors: error-class artifacts are never cached —
// a transient internal failure must not be pinned under a content key.
func TestCacheDoesNotStoreErrors(t *testing.T) {
	st := newStats()
	c := newCache(8, st)
	for _, class := range []fperr.Class{fperr.ClassUsage, fperr.ClassInput, fperr.ClassInternal, fperr.ClassUnavailable} {
		computes := 0
		compute := func() (*Artifact, error) {
			computes++
			return newArtifact("e", class, &Response{Class: class.String()}), nil
		}
		c.do("e", true, compute)
		c.do("e", true, compute)
		if computes != 2 {
			t.Errorf("class %s: computes = %d, want 2 (errors are not cacheable)", class, computes)
		}
	}
}

// TestCacheBounded: the cache never exceeds its capacity.
func TestCacheBounded(t *testing.T) {
	st := newStats()
	c := newCache(4, st)
	for i := 0; i < 32; i++ {
		key := strings.Repeat("k", i+1)
		c.do(key, true, func() (*Artifact, error) {
			return newArtifact(key, fperr.ClassNone, &Response{Key: key, Class: "none"}), nil
		})
	}
	if n := c.len(); n > 4 {
		t.Errorf("cache grew to %d entries, cap 4", n)
	}
	if st.cacheEntries.Load() != int64(c.len()) {
		t.Errorf("entries gauge %d != live count %d", st.cacheEntries.Load(), c.len())
	}
}
