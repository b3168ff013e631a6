package service

import (
	"sync"

	"fpint/internal/fperr"
	"fpint/internal/uarch"
)

// errShed is returned by run when every admission slot is taken or the
// pool is draining; the HTTP rim turns it into 503 + Retry-After.
var errShed = fperr.New(fperr.ClassUnavailable, "server overloaded or draining; retry later")

// workerState is one set of warm machinery. Simulation machines are
// reusable across runs with zero steady-state allocation, so each state
// keeps one per machine configuration instead of rebuilding the pipeline
// every job. A recovered panic discards the machines: a machine abandoned
// mid-run is not known to be consistent.
type workerState struct {
	machines map[string]*uarch.Machine
}

// machine returns the state's warm machine for cfg, building it on first
// use.
func (ws *workerState) machine(cfg uarch.Config) *uarch.Machine {
	if m, ok := ws.machines[cfg.Name]; ok {
		return m
	}
	m := uarch.NewMachine(cfg)
	ws.machines[cfg.Name] = m
	return m
}

// reset discards the warm machines (after a recovered panic).
func (ws *workerState) reset() { ws.machines = make(map[string]*uarch.Machine) }

// pool bounds the daemon's work. Each job runs on the goroutine that
// answers it, borrowing one of the idle warm states, so at most
// cap(idle) jobs run at once; slots admits that many plus the jobs
// waiting for a state, and sheds the rest. Identical shareable jobs never
// reach the pool twice: the cache's singleflight merges them first.
type pool struct {
	slots chan struct{}     // one entry per admitted job (or held by the drain)
	idle  chan *workerState // the warm states not lent to a job
	stop  chan struct{}     // closed when the drain starts
	once  sync.Once         // closes stop and collects every slot, once
}

// newPool builds a pool of workers warm states that admits
// workers×(depth+1) jobs: workers running and depth per worker waiting.
func newPool(workers, depth int) *pool {
	p := &pool{
		slots: make(chan struct{}, workers*(depth+1)),
		idle:  make(chan *workerState, workers),
		stop:  make(chan struct{}),
	}
	for range workers {
		p.idle <- &workerState{machines: make(map[string]*uarch.Machine)}
	}
	return p
}

// run takes a slot, then an idle state, runs job on the calling goroutine
// and returns both. It sheds with errShed when every slot is taken, or
// when the drain starts before the job does.
func (p *pool) run(job func(*workerState) *Artifact) (*Artifact, error) {
	select {
	case p.slots <- struct{}{}:
	default:
		return nil, errShed
	}
	defer func() { <-p.slots }()
	select {
	case ws := <-p.idle:
		defer func() { p.idle <- ws }()
		select {
		case <-p.stop:
			// The state came free as the drain started: shed the job
			// rather than start new work.
			return nil, errShed
		default:
			return job(ws), nil
		}
	case <-p.stop:
		return nil, errShed
	}
}

// drain stops admission, sheds the jobs waiting for a state, and returns
// once it holds every slot: the running jobs have finished, and no job is
// admitted again. Concurrent and repeated calls all return after the
// first drain completes.
func (p *pool) drain() {
	p.once.Do(func() {
		close(p.stop)
		for range cap(p.slots) {
			p.slots <- struct{}{}
		}
	})
}
