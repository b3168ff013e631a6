package uarch

import (
	"runtime"
	"testing"
	"time"

	"fpint/internal/isa"
	"fpint/internal/sim"
)

// TestFeedCloseStopsProducer: a run that stops reading mid-stream — its
// timing model panicked — must still stop the producer and get every ring
// buffer back for the next run. The program never halts, so only close can
// end its stream.
func TestFeedCloseStopsProducer(t *testing.T) {
	spin := &isa.Program{Insts: []isa.Inst{
		{Op: isa.ADD, Rd: 8, Rs: 8, Imm: 1, UseImm: true},
		{Op: isa.J, Target: 0},
	}}
	fm := sim.NewMachine()
	f := newFeed(fm)
	start := runtime.NumGoroutine()
	for run := 0; run < 3; run++ {
		fm.Reset(spin)
		f.start()
		// Read the ring round twice, so the producer has refilled buffers
		// the consumer returned.
		for i := 0; i < 2*feedDepth; i++ {
			if recs, res, err := f.next(feedBatch); len(recs) != feedBatch || res != nil || err != nil {
				t.Fatalf("run %d, batch %d: %d records, result %v, err %v", run, i, len(recs), res, err)
			}
		}
		f.close()
		if len(f.free) != feedDepth {
			t.Fatalf("run %d: %d of %d buffers free after close", run, len(f.free), feedDepth)
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Errorf("%d goroutines after the closed runs, %d before", n, start)
	}
}
