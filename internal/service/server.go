package service

import (
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
	// Workers is the number of worker goroutines (default 4), each with
	// its own warm simulation machines.
	Workers int
	// QueueDepth is the queue bound per worker (default 16): the pool's
	// one queue holds Workers×QueueDepth jobs, and a full queue sheds with
	// 503 rather than queueing unboundedly.
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

// Server is the fpintd daemon core: HTTP rim, admission control, cache,
// and worker pool. Create with New, serve Handler, stop with Drain.
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

// New builds a started server (workers running, accepting jobs).
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

// Drain stops admission and waits for in-flight jobs to finish; queued
// jobs are shed with 503. Safe to call more than once. The HTTP listener
// belongs to the caller (cmd/fpintd closes it after Drain returns).
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
		t := &task{done: make(chan struct{}), run: func(ws *workerState) *Artifact {
			return s.execute(j, key, ws)
		}}
		if err := s.pool.submit(t); err != nil {
			return nil, err
		}
		<-t.done
		if t.shed {
			return nil, errShed
		}
		s.stats.completed.Add(1)
		return t.art, nil
	}
	art, cached, err := s.cache.do(key, j.shareable(), compute)
	if err != nil {
		s.shed(w, kind, key)
		return
	}
	// Serve a copy: the stored payload stays sealed with Cached=false.
	resp := *art.Resp
	resp.Cached = cached
	s.writeResponse(w, art.Class.HTTPStatus(), &resp, art.Class)
}

// shed refuses a job with 503 + Retry-After.
func (s *Server) shed(w http.ResponseWriter, kind, key string) {
	s.stats.shed.Add(1)
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSec))
	resp := errorResponse(kind, key, errShed)
	s.writeResponse(w, fperr.ClassUnavailable.HTTPStatus(), resp, fperr.ClassUnavailable)
}

// writeError classifies and writes a pre-execution failure.
func (s *Server) writeError(w http.ResponseWriter, kind, key string, err error) {
	class := fperr.ClassOf(err)
	if class == fperr.ClassNone {
		class = fperr.ClassInternal
	}
	s.writeResponse(w, class.HTTPStatus(), errorResponse(kind, key, err), class)
}

// writeResponse emits the terminal response, compact JSON and a newline,
// and records its outcome.
func (s *Server) writeResponse(w http.ResponseWriter, status int, resp *Response, class fperr.Class) {
	s.stats.outcome(class)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp) // a write error here means the client went away
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
