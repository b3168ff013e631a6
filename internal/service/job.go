// Package service implements fpintd: a fault-isolated HTTP/JSON daemon
// that accepts compile, partition, and simulate jobs over a bounded worker
// pool, with a content-addressed artifact cache in front.
//
// Robustness contract:
//
//   - Every job executes behind a recover barrier; a panic anywhere in the
//     compile/simulate stack becomes a classified internal error (HTTP
//     500) and a service.panics_recovered increment, never a process
//     death.
//   - fperr classes map to HTTP statuses via fperr.Class.HTTPStatus, a
//     complete table pinned by unit test. Degraded compiles return 200
//     with "degraded": true — the degradation ladder produced a correct
//     program.
//   - Per-job deadlines and step budgets ride the engines' cooperative
//     run hooks (sim/interp/uarch SetRunHook), aborting runs at step
//     boundaries with a structured cancelled/step-limit trap → 422.
//   - Admission is bounded: a full pool queue or a draining process
//     sheds with 503 + Retry-After instead of queueing unboundedly.
//   - SIGTERM drains gracefully: in-flight jobs finish, queued jobs are
//     shed with 503, then the listener closes.
package service

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"time"

	"fpint/internal/analysis"
	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/fperr"
	"fpint/internal/obs"
	"fpint/internal/uarch"
)

// Job kinds, one per POST endpoint.
const (
	KindCompile   = "compile"
	KindPartition = "partition"
	KindSimulate  = "simulate"
)

// Request is the JSON body accepted by every job endpoint. Exactly one of
// Source and Workload names the program.
type Request struct {
	// Source is mini-C program text.
	Source string `json:"source,omitempty"`
	// Workload names a built-in benchmark (bench.Lookup) instead.
	Workload string `json:"workload,omitempty"`
	// Scheme is the partitioning scheme, one of codegen.SchemeNames():
	// none, basic, advanced (default), balanced, or optimal. A job
	// deadline does not interrupt the optimal scheme's oracle search,
	// which is bounded only by the default core.OracleLimits.
	Scheme string `json:"scheme,omitempty"`
	// Config is the machine configuration for simulate jobs, one of
	// uarch.ConfigNames(): 4way (default) or 8way.
	Config string `json:"config,omitempty"`
	// Analysis turns the alias/value-range analyses on or off (default).
	Analysis string `json:"analysis,omitempty"`
	// Timing selects the simulate engine: detailed (default), fast
	// (sampled timing), or functional (no timing model).
	Timing string `json:"timing,omitempty"`
	// DeadlineMS bounds the job's wall-clock time; the engines' run hooks
	// abort the run with a cancelled trap (422) when it expires. 0 means
	// the server default.
	DeadlineMS int64 `json:"deadlineMs,omitempty"`
	// StepBudget bounds dynamic steps per execution stage (the frontend
	// self-profile run and the simulation each get the budget). Exceeding
	// it is a step-limit trap (422). 0 means the engine defaults.
	StepBudget int64 `json:"stepBudget,omitempty"`
	// Panic asks the worker to panic mid-job. Only honored when the
	// daemon runs with chaos mode enabled (fpintd -chaos); otherwise it
	// is a usage error. The load harness uses it to prove the recover
	// barrier holds.
	Panic bool `json:"panic,omitempty"`
}

// ResponseSchema identifies the job-response JSON layout.
const ResponseSchema = "fpint-job/v1"

// Response is the JSON body of every job endpoint, success or failure.
type Response struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`
	// Key is the content-addressed cache key of the job (hex SHA-256);
	// empty for requests rejected before key computation.
	Key string `json:"key,omitempty"`
	// Cached reports that the response was served from the artifact cache
	// (or deduplicated onto a concurrent identical job).
	Cached bool `json:"cached"`
	// Class is the fperr class name ("none" on clean success); Error
	// carries the message for non-none classes other than degraded.
	Class string `json:"class"`
	Error string `json:"error,omitempty"`
	// Degraded reports that compilation fell down the degradation ladder;
	// the program is correct and the HTTP status is 200.
	Degraded bool `json:"degraded"`

	// Compile is the shared compile-report document (compile jobs).
	Compile *codegen.CompileReport `json:"compile,omitempty"`
	// Partition is the audit-trail view (partition jobs).
	Partition *PartitionReport `json:"partition,omitempty"`
	// Simulate carries a simulate job's outputs.
	Simulate *SimulateReport `json:"simulate,omitempty"`
}

// PartitionReport is the partition endpoint's document: the per-function
// audit trails without the code-size and pass-log detail of the full
// compile report.
type PartitionReport struct {
	Scheme   string                 `json:"scheme"`
	Fallback *codegen.Fallback      `json:"fallback,omitempty"`
	Funcs    map[string]*core.Audit `json:"funcs"`
}

// SimulateReport is the simulate endpoint's document: the program's exit
// value and output plus the deterministic metric registry (sim.* always;
// uarch.* when a timing model ran) as rendered by obs.Registry.WriteJSON.
type SimulateReport struct {
	Exit    int64           `json:"exit"`
	Output  string          `json:"output,omitempty"`
	Metrics json.RawMessage `json:"metrics"`
}

// timingMode is the resolved Timing field.
type timingMode int

const (
	timingDetailed timingMode = iota
	timingFast
	timingFunctional
)

func (t timingMode) String() string {
	switch t {
	case timingFast:
		return "fast"
	case timingFunctional:
		return "functional"
	}
	return "detailed"
}

// job is a validated, resolved request.
type job struct {
	kind       string
	src        string
	scheme     codegen.Scheme
	schemeName string
	cfg        uarch.Config
	analysis   bool
	timing     timingMode
	deadline   time.Duration // 0 = none
	budget     int64         // 0 = engine defaults
	panicJob   bool
}

// parseRequest validates a request against the kind's vocabulary. All
// failures are usage-class (HTTP 400): the request itself is wrong, not
// the program in it.
func parseRequest(kind string, req *Request) (*job, error) {
	j := &job{kind: kind}

	switch {
	case req.Source != "" && req.Workload != "":
		return nil, fperr.New(fperr.ClassUsage, "source and workload are mutually exclusive")
	case req.Source != "":
		j.src = req.Source
	case req.Workload != "":
		w := bench.Lookup(req.Workload)
		if w == nil {
			return nil, fperr.New(fperr.ClassUsage, "unknown workload %q", req.Workload)
		}
		j.src = w.Src
	case req.Panic:
		// A chaos job needs no program.
	default:
		return nil, fperr.New(fperr.ClassUsage, "one of source or workload is required")
	}

	j.schemeName = cmp.Or(req.Scheme, "advanced")
	var err error
	if j.scheme, err = codegen.ParseScheme(j.schemeName); err != nil {
		return nil, err
	}
	if j.cfg, err = uarch.ParseConfig(cmp.Or(req.Config, "4way")); err != nil {
		return nil, err
	}
	if j.analysis, err = analysis.ParseOnOff(cmp.Or(req.Analysis, "off")); err != nil {
		return nil, fperr.Wrap(fperr.ClassUsage, err)
	}

	switch req.Timing {
	case "", "detailed":
		j.timing = timingDetailed
	case "fast":
		j.timing = timingFast
	case "functional":
		j.timing = timingFunctional
	default:
		return nil, fperr.New(fperr.ClassUsage, "unknown timing mode %q (want detailed, fast, or functional)", req.Timing)
	}
	if kind != KindSimulate && req.Timing != "" {
		return nil, fperr.New(fperr.ClassUsage, "timing applies only to simulate jobs")
	}

	if req.DeadlineMS < 0 {
		return nil, fperr.New(fperr.ClassUsage, "negative deadlineMs")
	}
	j.deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	if req.StepBudget < 0 {
		return nil, fperr.New(fperr.ClassUsage, "negative stepBudget")
	}
	j.budget = req.StepBudget
	j.panicJob = req.Panic
	return j, nil
}

// cacheKey is the job's content address: the SHA-256 of every input that
// determines the artifact — kind, source text, scheme, machine config,
// analysis mode, timing mode, and step budget. Fields are length-prefixed
// so no two field sequences collide by concatenation. The deadline is
// deliberately excluded: it is wall-clock policy, not content, and two
// requests for the same artifact under different deadlines must share one
// cache entry. Chaos jobs are never cached, so Panic needs no key bit.
func (j *job) cacheKey() string {
	h := sha256.New()
	field := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	field("fpint-job/v1")
	field(j.kind)
	field(j.src)
	field(j.schemeName)
	field(j.cfg.Name)
	if j.analysis {
		field("analysis=on")
	} else {
		field("analysis=off")
	}
	field(j.timing.String())
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(j.budget))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil))
}

// shareable reports whether the job may join a concurrent identical
// computation (singleflight). Deadline-carrying jobs compute alone — a
// follower must not inherit the leader's (possibly tighter) deadline and
// its cancelled trap — and chaos jobs are not real work.
func (j *job) shareable() bool { return j.deadline == 0 && !j.panicJob }

// errorResponse builds the response document for a classified failure.
func errorResponse(kind, key string, err error) *Response {
	return &Response{
		Schema: ResponseSchema,
		Kind:   kind,
		Key:    key,
		Class:  fperr.ClassOf(err).String(),
		Error:  err.Error(),
	}
}

// metricsJSON renders a registry to its deterministic JSON document.
func metricsJSON(reg *obs.Registry) json.RawMessage {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return json.RawMessage(`{}`)
	}
	return json.RawMessage(buf.Bytes())
}
