package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"fpint/internal/fperr"
)

// Artifact is one sealed cache entry: the response a job produced,
// content-addressed by the job key and protected by a hash over the bytes
// the miss sent. Like a runstore record, a sealed artifact that no longer
// verifies is corruption, not data: the cache refuses and evicts it
// rather than serving it.
type Artifact struct {
	Key   string
	Class fperr.Class
	// Body is the response as sent on a miss: compact JSON with
	// "cached":false, and one newline. A hit sends the same bytes with
	// the envelope's cached flag set (writeResponse). It must not be
	// mutated after Seal.
	Body []byte
	// Hash is the hex SHA-256 of the sealed content.
	Hash string
}

// newArtifact encodes resp once, as the miss sends it. A document that
// cannot be encoded (a report holding a non-finite float) becomes an
// internal error, which is never cached; an error document holds only
// strings, so its own encoding cannot fail.
func newArtifact(key string, class fperr.Class, resp *Response) *Artifact {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		class = fperr.ClassInternal
		json.NewEncoder(&buf).Encode(errorResponse(resp.Kind, key, fperr.New(class, "encode response: %v", err)))
	}
	return &Artifact{Key: key, Class: class, Body: buf.Bytes()}
}

// ComputeHash hashes the artifact's content: key, class and body.
func (a *Artifact) ComputeHash() string {
	h := sha256.New()
	h.Write([]byte(a.Key))
	h.Write([]byte{0})
	h.Write([]byte(a.Class.String()))
	h.Write([]byte{0})
	h.Write(a.Body)
	return hex.EncodeToString(h.Sum(nil))
}

// Seal stamps the content hash.
func (a *Artifact) Seal() { a.Hash = a.ComputeHash() }

// Verify reports whether the sealed hash still matches the content.
func (a *Artifact) Verify() bool { return a.Hash != "" && a.Hash == a.ComputeHash() }

// cacheable reports whether the artifact may be stored: only clean and
// degraded successes. Errors are recomputed — a transient internal failure
// must not be pinned forever under a content key.
func (a *Artifact) cacheable() bool {
	return a.Class == fperr.ClassNone || a.Class == fperr.ClassDegraded
}

// flight is one in-progress computation that identical concurrent jobs
// can wait on.
type flight struct {
	done chan struct{}
	art  *Artifact
	err  error
}

// cache is the content-addressed artifact store with integrated
// singleflight. All bookkeeping is under one mutex; computations run
// outside it.
type cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*Artifact
	flights map[string]*flight
	stats   *stats
}

func newCache(capacity int, st *stats) *cache {
	return &cache{
		cap:     capacity,
		entries: make(map[string]*Artifact),
		flights: make(map[string]*flight),
		stats:   st,
	}
}

// get returns the verified entry for key, evicting and counting a
// tampered one. Callers hold c.mu.
func (c *cache) getLocked(key string) (*Artifact, bool) {
	a, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	if !a.Verify() {
		delete(c.entries, key)
		c.stats.cacheTampered.Add(1)
		c.stats.cacheEntries.Add(-1)
		return nil, false
	}
	return a, true
}

// do serves key from the cache, joins an in-flight identical computation
// (when share is true), or runs compute and stores a cacheable result.
// The returned bool reports whether the artifact came from the cache or a
// shared flight rather than this caller's own compute. compute's error is
// reserved for refusals to run (load shed, drain); job failures travel
// inside the artifact.
func (c *cache) do(key string, share bool, compute func() (*Artifact, error)) (*Artifact, bool, error) {
	c.mu.Lock()
	if a, ok := c.getLocked(key); ok {
		c.stats.cacheHits.Add(1)
		c.mu.Unlock()
		return a, true, nil
	}
	c.stats.cacheMisses.Add(1)
	if share {
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				return nil, false, f.err
			}
			// The leader did the work; for the follower this is a hit in
			// every sense that matters (no recomputation).
			c.stats.cacheHits.Add(1)
			return f.art, true, nil
		}
	}
	var f *flight
	if share {
		f = &flight{done: make(chan struct{})}
		c.flights[key] = f
	}
	c.mu.Unlock()

	art, err := compute()

	c.mu.Lock()
	if err == nil && art != nil && art.cacheable() {
		if _, exists := c.entries[key]; !exists {
			if len(c.entries) >= c.cap {
				// The cache is bounded; shedding an arbitrary entry keeps
				// admission O(1) without an ordering structure. Hit rates
				// under churn are a caller concern, correctness is not:
				// every entry is recomputable.
				for k := range c.entries {
					delete(c.entries, k)
					c.stats.cacheEntries.Add(-1)
					break
				}
			}
			art.Seal()
			c.entries[key] = art
			c.stats.cacheEntries.Add(1)
		}
	}
	if f != nil {
		f.art, f.err = art, err
		delete(c.flights, key)
		close(f.done)
	}
	c.mu.Unlock()
	return art, false, err
}
