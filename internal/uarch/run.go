package uarch

import (
	"fpint/internal/faultinject"
	"fpint/internal/isa"
	"fpint/internal/sim"
)

// Machine couples a reusable functional simulator with a reusable timing
// pipeline for one machine configuration. Build one with NewMachine and
// call Run repeatedly: the ROB ring, cache and predictor tables,
// statistics buffers, static instruction table and record buffers are
// allocated once, and the functional simulator keeps the guest memory
// pages its runs wrote, so a warm machine simulates without heap traffic
// — the property TestPipelineZeroSteadyStateAllocs pins.
//
// Each run steps the functional simulator on a goroutine of its own, one
// ring of record buffers ahead of the timing model (see feed); the timing
// model runs on the caller's goroutine and consumes the records in stream
// order, so the cycles are those of a direct Step loop. The goroutine ends
// before Run or RunSampled returns, panics included, and a panic on it is
// raised again on the caller's goroutine. A Machine is not safe for
// concurrent use.
//
// The returned sim.Result and the slices inside Stats are machine-owned
// and valid only until the machine's next Run; copy them to keep them.
// Results are cycle-identical to the fresh-machine Run helpers below.
type Machine struct {
	cfg  Config
	pipe *pipeline
	fm   *sim.Machine
	feed *feed

	// Flight recorder (see SetTimelineWidth): machine-owned and recycled
	// across runs so arming it keeps the zero-allocation property.
	rec     *TimelineRecorder
	tlWidth int64

	// stepLimit, when > 0, bounds every run's dynamic instruction count.
	stepLimit int64

	// Detailed-run probes and what the most recent run recorded with them.
	journalLimit int
	profiling    bool
	faults       *faultinject.Plan
	journal      *Journal
	profile      *CycleProfile
}

// NewMachine builds a reusable functional+timing machine for cfg.
func NewMachine(cfg Config) *Machine {
	fm := sim.NewMachine()
	return &Machine{cfg: cfg, pipe: newPipeline(cfg), fm: fm, feed: newFeed(fm)}
}

// SetStepLimit bounds the dynamic instruction count of every subsequent
// run (0 restores the functional simulator's default). Exceeding the
// budget aborts the run with a trap.KindStepLimit trap — the same watchdog
// the standalone functional simulator uses, so a daemon can thread a
// per-job step budget into a warm machine without rebuilding it.
func (m *Machine) SetStepLimit(n int64) { m.stepLimit = n }

// SetRunHook installs a cooperative cancellation check on the underlying
// functional simulator: hook runs every `every` dynamic instructions
// during Run and RunSampled, and a non-nil return aborts the run with
// that error — conventionally a trap.KindCancelled trap. The hook runs on
// the run's functional-simulator goroutine, not the caller's, so what it
// reads and writes must be safe to share with the caller; the run's return
// orders every hook call before it. A hook that panics makes Run or
// RunSampled panic on the caller's goroutine with a value that carries the
// hook's panic value and stack, and unwraps to it when it is an error.
// Arming a hook keeps the warm machine's zero-allocation steady state
// (pinned by TestPipelineZeroSteadyStateAllocs).
func (m *Machine) SetRunHook(hook func(steps int64) error, every int64) {
	m.fm.SetRunHook(hook, every)
}

// SetJournalLimit arms the pipeline journal: every subsequent detailed run
// records its first n committed instructions, read back with Journal. 0
// disarms it.
func (m *Machine) SetJournalLimit(n int) { m.journalLimit = n }

// SetProfiling arms per-PC cycle attribution for every subsequent detailed
// run, read back with Profile. Profiled runs allocate in the profile
// itself, not in the pipeline loop.
func (m *Machine) SetProfiling(on bool) { m.profiling = on }

// SetFaultPlan arms a transient-fault plan on every subsequent detailed run
// (nil disarms it); the plan accumulates its trace, so arm a fresh one per
// run. Faults cost only cycles: the functional result comes from the
// architectural simulator and is untouched by the timing model.
func (m *Machine) SetFaultPlan(plan *faultinject.Plan) { m.faults = plan }

// Journal returns the journal of the most recent run, or nil when none was
// armed. It remains valid across later runs.
func (m *Machine) Journal() *Journal { return m.journal }

// Profile returns the cycle profile of the most recent run, or nil when
// profiling was off. It is complete (Σ per-PC cycles == Stats.Cycles) and
// remains valid across later runs.
func (m *Machine) Profile() *CycleProfile { return m.profile }

// reset readies the pipeline, its static table, the flight recorder, and
// the functional simulator for a run of prog, dropping the previous run's
// journal and profile. The step budget is re-applied after the functional
// Reset, which restores the simulator's default; the run hook survives
// Reset. The caller then starts the feed and defers its close.
func (m *Machine) reset(prog *isa.Program) {
	m.pipe.reset()
	m.pipe.decode(prog)
	if m.tlWidth > 0 {
		m.rec.reset(m.tlWidth)
		m.pipe.rec = m.rec
	}
	m.journal, m.profile = nil, nil
	m.fm.Reset(prog)
	if m.stepLimit > 0 {
		m.fm.SetStepLimit(m.stepLimit)
	}
}

// Run executes prog functionally while driving the timing model with the
// armed probes, returning both the functional result and the timing
// statistics.
func (m *Machine) Run(prog *isa.Program) (*sim.Result, Stats, error) {
	m.reset(prog)
	m.feed.start()
	defer m.feed.close()
	p := m.pipe
	if m.journalLimit > 0 {
		m.journal = p.attachJournal(m.journalLimit)
	}
	if m.profiling {
		m.profile = NewCycleProfile()
	}
	p.profile, p.faults = m.profile, m.faults
	for {
		recs, res, err := m.feed.next(batchSize)
		if err != nil {
			return nil, Stats{}, err
		}
		if res != nil {
			return res, p.finish(), nil
		}
		p.pending = append(p.pending, recs...)
		for len(p.pending)-p.pendHead > lookahead {
			p.step()
		}
		p.compact()
	}
}

// Run executes prog functionally while driving the timing model on a fresh
// machine, returning both the functional result and the timing statistics.
func Run(prog *isa.Program, cfg Config) (*sim.Result, Stats, error) {
	return NewMachine(cfg).Run(prog)
}
