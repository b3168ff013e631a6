package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"fpint/internal/codegen"
	"fpint/internal/fperr"
)

// Options configures a Server. The zero value is usable; zero fields take
// the documented defaults.
type Options struct {
	// Workers bounds the jobs that run at once (default 4); each running
	// job borrows one of Workers sets of warm simulation machines.
	Workers int
	// QueueDepth is the number of jobs per worker that may wait for a
	// free set (default 16): the pool admits Workers×(QueueDepth+1) jobs,
	// running or waiting, and sheds the next with 503 rather than
	// queueing unboundedly.
	QueueDepth int
	// CacheCap bounds the artifact cache entry count (default 1024).
	CacheCap int
	// Chaos enables the fault-injection surface: requests carrying
	// "panic": true are honored (and recovered). Off by default so a
	// production daemon cannot be panicked by request.
	Chaos bool
}

const (
	maxBodyBytes  = 1 << 20 // request body bound
	retryAfterSec = 1       // Retry-After hint on shed responses
)

func (o *Options) withDefaults() Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = 4
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 16
	}
	if out.CacheCap <= 0 {
		out.CacheCap = 1024
	}
	return out
}

// Server is the fpintd daemon core: HTTP rim, cache, and the pool that
// bounds admission. Create with New, serve Handler, stop with Drain.
type Server struct {
	opts     Options
	stats    *stats
	cache    *cache
	pool     *pool
	aborting atomic.Bool

	// testCompileOptions, when non-nil, may mutate each job's compile
	// options before execution. Test seam: the degraded-ladder e2e test
	// injects a failing PartitionHook through it, since no HTTP field can
	// (deliberately) make a partitioner fail on demand.
	testCompileOptions func(*codegen.Options)
}

// New builds a server that accepts jobs.
func New(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{opts: o, stats: newStats()}
	s.cache = newCache(o.CacheCap, s.stats)
	s.pool = newPool(o.Workers, o.QueueDepth)
	return s
}

// Handler returns the daemon's HTTP mux:
//
//	POST /v1/compile    compile job → compile report
//	POST /v1/partition  compile job → partition audit trails
//	POST /v1/simulate   compile+simulate job → metrics document
//	GET  /healthz       liveness ("ok", or "draining" with 503)
//	GET  /statsz        operational counters (deterministic registry JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", func(w http.ResponseWriter, r *http.Request) { s.handleJob(w, r, KindCompile) })
	mux.HandleFunc("/v1/partition", func(w http.ResponseWriter, r *http.Request) { s.handleJob(w, r, KindPartition) })
	mux.HandleFunc("/v1/simulate", func(w http.ResponseWriter, r *http.Request) { s.handleJob(w, r, KindSimulate) })
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	return mux
}

// Drain stops admission and waits for in-flight jobs to finish; jobs
// waiting for a worker are shed with 503. Safe to call more than once,
// and concurrently. The HTTP listener belongs to the caller (cmd/fpintd
// closes it after Drain returns).
func (s *Server) Drain() {
	s.stats.draining.Store(true)
	s.pool.drain()
}

// Abort force-cancels in-flight jobs: every armed run hook trips with a
// cancelled trap at its next step boundary. For drains whose grace period
// ran out.
func (s *Server) Abort() { s.aborting.Store(true) }

// Draining reports whether the drain has started.
func (s *Server) Draining() bool { return s.stats.draining.Load() }

// handleJob is the one job endpoint implementation; kind tells it which
// document to produce.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, kind string) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, kind, "", fperr.New(fperr.ClassUsage, "method %s not allowed; POST a job", r.Method))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		s.writeError(w, kind, "", fperr.New(fperr.ClassUsage, "read body: %v", err))
		return
	}
	if len(body) > maxBodyBytes {
		s.writeError(w, kind, "", fperr.New(fperr.ClassUsage, "request body exceeds %d bytes", maxBodyBytes))
		return
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, kind, "", fperr.New(fperr.ClassUsage, "malformed job JSON: %v", err))
		return
	}
	j, err := parseRequest(kind, &req)
	if err != nil {
		s.writeError(w, kind, "", err)
		return
	}
	key := j.cacheKey()

	if s.Draining() {
		s.shed(w, kind, key)
		return
	}
	s.stats.accepted.Add(1)

	compute := func() (*Artifact, error) {
		return s.pool.run(func(ws *workerState) *Artifact { return s.execute(j, key, ws) })
	}
	art, cached, err := s.cache.do(key, j.shareable(), compute)
	if err != nil {
		s.shed(w, kind, key)
		return
	}
	s.writeResponse(w, art, cached)
}

// shed refuses a job with 503 + Retry-After.
func (s *Server) shed(w http.ResponseWriter, kind, key string) {
	s.stats.shed.Add(1)
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSec))
	s.writeResponse(w, failed(kind, key, errShed), false)
}

// writeError classifies and writes a pre-execution failure.
func (s *Server) writeError(w http.ResponseWriter, kind, key string, err error) {
	class := fperr.ClassOf(err)
	if class == fperr.ClassNone {
		class = fperr.ClassInternal
	}
	s.writeResponse(w, newArtifact(key, class, errorResponse(kind, key, err)), false)
}

var cachedFalse = []byte(`"cached":false`)

// writeResponse sends the artifact's body with its class's status, and
// records the outcome. A cached response is the same body with the
// envelope's cached flag set; the flag precedes every payload field, so
// its first match is the envelope's.
func (s *Server) writeResponse(w http.ResponseWriter, art *Artifact, cached bool) {
	s.stats.outcome(art.Class)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(art.Class.HTTPStatus())
	body := art.Body
	if cached {
		i := bytes.Index(body, cachedFalse) + len(`"cached":`)
		w.Write(body[:i])
		io.WriteString(w, "true")
		body = body[i+len("false"):]
	}
	w.Write(body) // a write error here means the client went away
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.stats.writeJSON(w)
}
