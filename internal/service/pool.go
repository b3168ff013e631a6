package service

import (
	"sync"

	"fpint/internal/fperr"
	"fpint/internal/uarch"
)

// errShed is returned by submit when the queue is full or the pool is
// draining; the HTTP rim turns it into 503 + Retry-After.
var errShed = fperr.New(fperr.ClassUnavailable, "server overloaded or draining; retry later")

// task is one queued job. The worker fills art (or leaves shed=true when
// the pool drained underneath it) and closes done.
type task struct {
	run  func(ws *workerState) *Artifact
	art  *Artifact
	shed bool
	done chan struct{}
}

// workerState is per-worker warm machinery. Simulation machines are
// reusable across runs with zero steady-state allocation, so each worker
// keeps one per machine configuration instead of rebuilding the pipeline
// every job. A recovered panic discards the state: a machine abandoned
// mid-run is not known to be consistent.
type workerState struct {
	machines map[string]*uarch.Machine
}

// machine returns the worker's warm machine for cfg, building it on first
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

// pool is the bounded worker pool: one queue that every worker reads, so
// a job waits only while every worker is busy. Identical shareable jobs
// need no routing to one worker: the cache's singleflight merges them
// before they are queued.
type pool struct {
	mu       sync.RWMutex
	draining bool
	queue    chan *task
	wg       sync.WaitGroup
}

// newPool starts workers goroutines reading one queue of workers×depth
// slots.
func newPool(workers, depth int) *pool {
	p := &pool{queue: make(chan *task, workers*depth)}
	p.wg.Add(workers)
	for range workers {
		go func() {
			defer p.wg.Done()
			ws := &workerState{machines: make(map[string]*uarch.Machine)}
			for t := range p.queue {
				if p.isDraining() {
					// The job was queued when the drain started: shed it
					// rather than starting new work.
					t.shed = true
					close(t.done)
					continue
				}
				t.art = t.run(ws)
				close(t.done)
			}
		}()
	}
	return p
}

func (p *pool) isDraining() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.draining
}

// submit enqueues t, or refuses with errShed when the queue is full or the
// pool is draining. The read lock spans the send so a submit cannot race
// the drain's channel close.
func (p *pool) submit(t *task) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.draining {
		return errShed
	}
	select {
	case p.queue <- t:
		return nil
	default:
		return errShed
	}
}

// drain stops admission, lets in-flight jobs finish, sheds everything
// still queued, and waits for the workers to exit.
func (p *pool) drain() {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
