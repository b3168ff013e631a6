package bench

import (
	"crypto/sha256"
	"sync"

	"fpint/internal/codegen"
	"fpint/internal/uarch"
)

// Runs is the run table behind the cycle reports: it times each (workload
// source, compiled binary, machine configuration) once and hands that
// Measurement to every report that asks for it. Figures 9/10, §7.3, §7.5,
// the oracle gap, the calibration, the clean half of the fault sweep and
// the analysis delta quote the same runs, so one table per process times
// each of them once. The key is content, not labels: schemes that compile
// a workload to the same binary (optimal and advanced on gcc, basic and
// advanced on swim) share one run, and the Suite fixes detailed or fast
// mode for every entry.
//
// Suite.Measure, Suite.Record and probe-armed runs do not read the table:
// they simulate on every call.
type Runs struct {
	s  *Suite
	mu sync.Mutex
	m  map[runKey]func() (*Measurement, error)
}

// runKey identifies one timed run: the workload's source, the SHA-256 of
// the binary's disassembly and the machine configuration's name.
type runKey struct {
	src    string
	binary [sha256.Size]byte
	config string
}

// NewRuns returns an empty run table that simulates through s.
func NewRuns(s *Suite) *Runs {
	return &Runs{s: s, m: make(map[runKey]func() (*Measurement, error))}
}

// Measure compiles the workload under scheme with the analyses off and
// returns its measurement on cfg, timing it only if the table has not.
func (r *Runs) Measure(w *Workload, scheme codegen.Scheme, cfg uarch.Config) (*Measurement, error) {
	res, err := r.s.Compile(w, scheme)
	if err != nil {
		return nil, err
	}
	return r.measure(w, scheme, res, cfg)
}

// measure returns the measurement of the compiled workload on cfg. The
// first request for a key runs the simulation; concurrent requests for it
// wait for that one run, and later ones read its result. The measurement
// carries the requester's workload and scheme labels.
func (r *Runs) measure(w *Workload, scheme codegen.Scheme, res *codegen.Result, cfg uarch.Config) (*Measurement, error) {
	key := runKey{src: w.Src, binary: sha256.Sum256([]byte(res.Prog.Disassemble())), config: cfg.Name}
	r.mu.Lock()
	run, ok := r.m[key]
	if !ok {
		run = sync.OnceValues(func() (*Measurement, error) {
			m, _, err := r.s.run(w, scheme, res, cfg, nil)
			return m, err
		})
		r.m[key] = run
	}
	r.mu.Unlock()
	m, err := run()
	if err != nil {
		return nil, err
	}
	labeled := *m
	labeled.Workload, labeled.Scheme = w.Name, scheme
	return &labeled, nil
}
