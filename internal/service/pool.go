package service

import (
	"hash/fnv"
	"sync"

	"fpint/internal/fperr"
	"fpint/internal/uarch"
)

// errShed is returned by submit when the shard queue is full or the pool
// is draining; the HTTP rim turns it into 503 + Retry-After.
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

// pool is the sharded bounded worker pool. Each shard is one worker with
// one bounded queue; jobs hash to shards by cache key, so identical jobs
// serialize on the same worker (complementing the cache's singleflight)
// and a pathological job class cannot occupy every worker.
type pool struct {
	mu       sync.RWMutex
	draining bool
	shards   []chan *task
	wg       sync.WaitGroup
}

// newPool starts workers goroutines, each with a queue of depth slots.
func newPool(workers, depth int) *pool {
	p := &pool{shards: make([]chan *task, workers)}
	for i := range p.shards {
		ch := make(chan *task, depth)
		p.shards[i] = ch
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			ws := &workerState{machines: make(map[string]*uarch.Machine)}
			for t := range ch {
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

// submit enqueues t on key's shard, or refuses with errShed when the
// shard queue is full or the pool is draining. The read lock spans the
// send so a submit cannot race the drain's channel close.
func (p *pool) submit(key string, t *task) error {
	h := fnv.New32a()
	h.Write([]byte(key))
	shard := p.shards[h.Sum32()%uint32(len(p.shards))]

	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.draining {
		return errShed
	}
	select {
	case shard <- t:
		return nil
	default:
		return errShed
	}
}

// drain stops admission, lets in-flight jobs finish, sheds everything
// still queued, and waits for the workers to exit.
func (p *pool) drain() {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.draining = true
	for _, ch := range p.shards {
		close(ch)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
