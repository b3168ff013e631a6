package uarch_test

import (
	"testing"
	"testing/quick"

	"fpint/internal/codegen"
	"fpint/internal/uarch"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := uarch.NewCache(1024, 2, 32)
	if c.Access(0, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0, false) {
		t.Fatal("second access missed")
	}
	if !c.Access(24, false) {
		t.Fatal("same-line access missed")
	}
	if c.Access(32, false) {
		t.Fatal("next line hit while cold")
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate %v, want 0.5", c.MissRate())
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 2-way, 16 sets of 32B lines (1KB): addresses with identical set index
	// are multiples of 16*32=512 apart.
	c := uarch.NewCache(1024, 2, 32)
	c.Access(0, false)    // way A
	c.Access(512, false)  // way B
	c.Access(0, false)    // touch A (B becomes LRU)
	c.Access(1024, false) // evicts B
	if !c.Access(0, false) {
		t.Fatal("LRU evicted the recently used line")
	}
	if c.Access(512, false) {
		t.Fatal("evicted line still present")
	}
}

func TestCacheWritebackCounting(t *testing.T) {
	c := uarch.NewCache(1024, 2, 32)
	c.Access(0, true)     // dirty fill
	c.Access(512, false)  // clean fill
	c.Access(1024, false) // evicts LRU (the dirty line at 0)
	c.Access(1536, false) // evicts the clean line
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Writebacks)
	}
}

func TestCacheCapacityProperty(t *testing.T) {
	// Property: re-walking a working set no larger than the cache after a
	// warmup walk produces no further misses.
	f := func(seed uint8) bool {
		c := uarch.NewCache(4096, 2, 32)
		base := int64(seed) * 32
		for i := int64(0); i < 64; i++ { // 64 lines = half the cache
			c.Access(base+i*32, false)
		}
		before := c.Misses
		for i := int64(0); i < 64; i++ {
			c.Access(base+i*32, false)
		}
		return c.Misses == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGshareLearnsAlternation(t *testing.T) {
	p := uarch.NewGshare(1024, 8)
	// Strict alternation is perfectly predictable with global history after
	// warmup.
	taken := false
	for i := 0; i < 2000; i++ {
		p.PredictAndUpdate(100, taken)
		taken = !taken
	}
	if p.Accuracy() < 0.9 {
		t.Fatalf("gshare accuracy %.3f on alternating branch", p.Accuracy())
	}
}

func TestGshareLearnsBias(t *testing.T) {
	p := uarch.NewGshare(1024, 8)
	for i := 0; i < 1000; i++ {
		p.PredictAndUpdate(4, true)
	}
	if p.Accuracy() < 0.95 {
		t.Fatalf("accuracy %.3f on always-taken branch", p.Accuracy())
	}
}

func TestGshareCountsLookups(t *testing.T) {
	p := uarch.NewGshare(64, 4)
	for i := 0; i < 10; i++ {
		p.PredictAndUpdate(i, i%2 == 0)
	}
	if p.Lookups != 10 {
		t.Fatalf("lookups = %d", p.Lookups)
	}
	if p.Mispredicts > p.Lookups {
		t.Fatalf("mispredicts %d > lookups %d", p.Mispredicts, p.Lookups)
	}
}

// TestPipelineRespectsIssueWidth: with a single INT ALU, a chain of
// independent ALU ops cannot exceed IPC 1 plus front-end effects.
func TestPipelineNarrowMachineIPCBound(t *testing.T) {
	cfg := uarch.Config4Way()
	cfg.IntALUs = 1
	cfg.IssueWidth = 1
	cfg.FetchWidth = 1
	cfg.DecodeWidth = 1
	cfg.RetireWidth = 1
	_, st := compileAndTime(t, loopSrc, 0, cfg)
	if st.IPC() > 1.0+1e-9 {
		t.Fatalf("IPC %.3f exceeds single-issue bound", st.IPC())
	}
}

func TestStatsIPCZeroSafe(t *testing.T) {
	var st uarch.Stats
	if st.IPC() != 0 {
		t.Fatal("IPC on empty stats should be 0")
	}
}

// TestSmallerWindowSlower: shrinking the issue windows cannot make code
// faster; on ILP-rich code it should cost cycles.
func TestSmallerWindowSlower(t *testing.T) {
	big := uarch.Config4Way()
	small := uarch.Config4Way()
	small.IntWindow = 4
	small.FpWindow = 4
	small.MaxInFlight = 8
	_, stBig := compileAndTime(t, loopSrc, 0, big)
	_, stSmall := compileAndTime(t, loopSrc, 0, small)
	if stSmall.Cycles < stBig.Cycles {
		t.Fatalf("smaller window faster: %d < %d", stSmall.Cycles, stBig.Cycles)
	}
	if stSmall.Cycles == stBig.Cycles {
		t.Logf("window size made no difference on this kernel (%d cycles)", stBig.Cycles)
	}
}

// TestPhysRegLimitThrottles: starving rename of physical registers must
// slow the machine.
func TestPhysRegLimitThrottles(t *testing.T) {
	normal := uarch.Config4Way()
	starved := uarch.Config4Way()
	starved.IntPhysRegs = 34 // two rename registers
	starved.FpPhysRegs = 34
	_, stN := compileAndTime(t, loopSrc, 0, normal)
	_, stS := compileAndTime(t, loopSrc, 0, starved)
	if stS.Cycles <= stN.Cycles {
		t.Fatalf("register-starved machine not slower: %d vs %d", stS.Cycles, stN.Cycles)
	}
}

// TestSlowerCachesCostCycles: a larger miss penalty cannot speed things up.
func TestSlowerCachesCostCycles(t *testing.T) {
	fast := uarch.Config4Way()
	slow := uarch.Config4Way()
	slow.DCacheMissPenalty = 60
	slow.ICacheMissPenalty = 60
	_, stF := compileAndTime(t, loopSrc, 0, fast)
	_, stS := compileAndTime(t, loopSrc, 0, slow)
	if stS.Cycles < stF.Cycles {
		t.Fatalf("slower memory produced fewer cycles: %d < %d", stS.Cycles, stF.Cycles)
	}
}

// TestJournalRecordsPipelineOrder: the pipetrace journal must record
// committed instructions in order with monotone, causally consistent
// stage timestamps.
func TestJournalRecordsPipelineOrder(t *testing.T) {
	res, _, err := codegen.CompileSource(loopSrc, codegen.Options{Scheme: codegen.SchemeAdvanced})
	if err != nil {
		t.Fatal(err)
	}
	m := uarch.NewMachine(uarch.Config4Way())
	m.SetJournalLimit(200)
	if _, _, err := m.Run(res.Prog); err != nil {
		t.Fatal(err)
	}
	j := m.Journal()
	if len(j.Entries) != 200 {
		t.Fatalf("journal has %d entries, want 200", len(j.Entries))
	}
	prevCommit := int64(0)
	for i, e := range j.Entries {
		if e.Seq != int64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
		if !(e.FetchAt <= e.IssueAt && e.IssueAt < e.DoneAt && e.DoneAt <= e.CommitAt) {
			t.Fatalf("entry %d stage order violated: %+v", i, e)
		}
		if e.CommitAt < prevCommit {
			t.Fatalf("entry %d commits before its predecessor", i)
		}
		prevCommit = e.CommitAt
	}
	if j.String() == "" {
		t.Fatal("empty rendering")
	}
}
