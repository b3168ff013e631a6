package uarch

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"fpint/internal/sim"
)

// The feed's ring: feedDepth buffers of feedBatch records (256 KiB per
// machine). A batch must cost the functional simulator more than the
// consumer's wake-up: fast-mode warming reads a record faster than Step
// writes one, so the consumer waits on nearly every batch, and at 1,024
// records a batch the hand-offs ate the gain.
const (
	feedDepth = 4
	feedBatch = 4096
)

// feed runs the functional simulator on a producer goroutine, one ring
// buffer ahead of the timing model, and hands its records over in stream
// order. The producer steps sim.Machine.Step into a free buffer and sends
// the filled one; the consumer (Machine.Run or the sampler, on the
// caller's goroutine) reads it through next and returns the buffer when it
// asks for more. The record stream is the one a direct Step loop yields,
// so every cycle is too.
//
// A run calls start, then next until it returns the result or an error,
// and always close (deferred), which stops a producer the run abandoned —
// on a panic — and leaves every buffer free for the next run. Between runs
// no goroutine is left and the functional machine belongs to the caller.
type feed struct {
	fm   *sim.Machine
	ring []sim.Record // feedDepth buffers of feedBatch records

	// Both channels hold at most feedDepth values, one per buffer, so no
	// send on them blocks.
	full chan batch // filled buffers, in stream order
	free chan int   // indices of buffers the producer may fill
	stop atomic.Bool

	// run is produce, bound once: a `go f.produce()` would allocate a
	// method-value closure on every run.
	run func()

	// Consumer state: the batch being read and the records handed out of
	// it; held reports that the consumer owns cur.idx, live that the
	// producer has not yet sent its last batch.
	cur  batch
	pos  int
	held bool
	live bool
}

// batch is one filled buffer. The last batch of a run carries what ended
// the stream: the result at HALT, the error of a trap, a producer panic,
// or nothing when close stopped the producer.
type batch struct {
	idx      int // buffer index in the ring
	n        int // records in the buffer
	last     bool
	res      *sim.Result
	err      error
	panicked *producerPanic
}

func newFeed(fm *sim.Machine) *feed {
	f := &feed{
		fm:   fm,
		ring: make([]sim.Record, feedDepth*feedBatch),
		full: make(chan batch, feedDepth),
		free: make(chan int, feedDepth),
	}
	for i := 0; i < feedDepth; i++ {
		f.free <- i
	}
	f.run = f.produce
	return f
}

// produce is the producer goroutine: it steps the functional machine into
// free buffers until HALT, a trap, a panic or a stop, and its last batch
// says which.
func (f *feed) produce() {
	b := batch{last: true}
	ended := false
	defer func() {
		if !ended {
			// Step panicked (a run hook, or a simulator bug) or called
			// runtime.Goexit, where recover returns nil; the consumer
			// raises it on the caller's goroutine.
			b.panicked = &producerPanic{value: recover(), stack: debug.Stack()}
		}
		f.full <- b
	}()
	for {
		b.idx = <-f.free
		if f.stop.Load() {
			b.n, ended = 0, true
			return
		}
		b.n, b.res, b.err = f.fm.Step(f.ring[b.idx*feedBatch : (b.idx+1)*feedBatch])
		if b.res != nil || b.err != nil {
			ended = true
			return
		}
		f.full <- batch{idx: b.idx, n: b.n}
	}
}

// start begins streaming a run of the functional machine, which the caller
// has reset onto the program.
func (f *feed) start() {
	f.cur, f.pos, f.live = batch{}, 0, true
	go f.run()
}

// next returns the stream's next records, at most limit of them; they stay
// valid until the next call. Once every record before HALT has been
// returned it returns no records and the machine-owned result. A trap ends
// the stream at once: next returns its error and drops the records of the
// batch that trapped, as a direct Step loop does. A producer panic is
// raised again here, on the caller's goroutine.
func (f *feed) next(limit int) ([]sim.Record, *sim.Result, error) {
	for f.pos == f.cur.n {
		f.release()
		if f.cur.last {
			return nil, f.cur.res, f.cur.err
		}
		f.cur, f.pos, f.held = <-f.full, 0, true
		if f.cur.last {
			f.live = false
			if f.cur.panicked != nil {
				f.release()
				panic(f.cur.panicked)
			}
			if f.cur.err != nil {
				f.pos = f.cur.n
			}
		}
	}
	n := min(limit, f.cur.n-f.pos)
	lo := f.cur.idx*feedBatch + f.pos
	f.pos += n
	return f.ring[lo : lo+n], nil, nil
}

// release returns the buffer the consumer holds to the producer.
func (f *feed) release() {
	if f.held {
		f.free <- f.cur.idx
		f.held = false
	}
}

// close ends the run's stream on every exit path: it stops a producer that
// is still running at its next batch, drains the ring, and returns every
// buffer, so no goroutine outlives the run.
func (f *feed) close() {
	f.release()
	if !f.live {
		return
	}
	f.stop.Store(true)
	for {
		b := <-f.full
		f.free <- b.idx
		if b.last {
			break
		}
	}
	f.stop.Store(false)
	f.live = false
}

// producerPanic is what Run and RunSampled panic with when the functional
// simulator panicked on the producer goroutine: the value, with the stack
// it was raised on. It unwraps to the value when that is an error.
type producerPanic struct {
	value any
	stack []byte
}

func (p *producerPanic) Error() string {
	return fmt.Sprintf("%v [recovered from the functional simulator's goroutine]\n\n%s", p.value, p.stack)
}

func (p *producerPanic) Unwrap() error {
	err, _ := p.value.(error)
	return err
}
