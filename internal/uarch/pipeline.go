package uarch

import (
	"math"

	"fpint/internal/faultinject"
	"fpint/internal/isa"
	"fpint/internal/sim"
)

// Stats summarizes a timing simulation.
type Stats struct {
	Cycles       int64
	Instructions int64
	Loads        int64
	Stores       int64

	// Issue activity per subsystem (instructions issued to each).
	IssuedINT int64
	IssuedFP  int64
	IssuedFPa int64

	// IntIdleFPaBusy counts cycles in which the INT subsystem issued
	// nothing while the FPa subsystem issued at least one instruction —
	// the load-imbalance signal discussed for m88ksim (§7.3).
	IntIdleFPaBusy int64

	// FetchMispredictStalls counts cycles fetch was blocked on an
	// unresolved mispredicted branch.
	FetchMispredictStalls int64
	// FetchICacheStalls counts cycles fetch was blocked on I-cache misses.
	FetchICacheStalls int64

	BpredLookups     int64
	BpredMispredicts int64
	ICacheMissRate   float64
	DCacheMissRate   float64

	// FaultsInjected counts transient faults injected (and detected) by an
	// attached fault plan; FaultRecoveryCycles is the total latency added to
	// faulted instructions by the detection/recovery discipline. Zero when
	// no plan is attached.
	FaultsInjected      int64
	FaultRecoveryCycles int64
	// FetchFaultStalls counts cycles fetch was blocked refilling the front
	// end after a fault-triggered pipeline flush.
	FetchFaultStalls int64

	// IssueActiveCycles counts cycles in which at least one instruction
	// issued. Every other cycle is attributed to exactly one stall cause
	// and one subsystem in StallBySub, so
	//
	//	IssueActiveCycles + ΣStallBySub == Cycles
	//
	// (the invariant StallAccountingError checks).
	IssueActiveCycles int64

	// StallBySub[sub][cause] attributes each non-issuing cycle to the
	// subsystem of the instruction at fault (see classifyStall for the
	// blame rules; pure front-end conditions are charged to INT, whose
	// core owns fetch/decode).
	StallBySub [3][NumStallCauses]int64

	// IssueSlotCycles[k] counts cycles in which exactly k instructions
	// issued (k = 0..IssueWidth) — the per-slot issue-utilization profile.
	//
	// The histogram slices below are owned by the Pipeline that produced
	// them and are recycled by its next Reset; copy them if the Stats must
	// outlive a reused pipeline. (Runs through the package-level Run
	// helpers use a fresh pipeline per call and are unaffected.)
	IssueSlotCycles []int64

	// Per-cycle occupancy histograms, sampled at the end of every cycle:
	// IntWinOcc[n] is the number of cycles the INT issue window held n
	// entries, and likewise for the FP window and the in-flight (ROB)
	// count.
	IntWinOcc []int64
	FpWinOcc  []int64
	ROBOcc    []int64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

const never = math.MaxInt64 / 4

// Per-instruction boolean state, packed into one byte of the ROB's flag
// column.
const (
	fDispatched = uint8(1) << iota
	fIssued
	fIsMem
	fIsLoad
	fIsStore
	fIsBr
	fMisp  // conditional branch that the predictor missed
	fDmiss // load that missed the D-cache
)

// robColumns is the in-flight instruction store in struct-of-arrays layout:
// one parallel column per field, indexed by abs−robBase. The hot columns
// (flags, dispatchAt, doneAt, deps, sub, memAddr) are what the per-cycle
// issue/commit scans touch; keeping them in dense homogeneous arrays — the
// reservation-station idiom — is what makes those scans cache-friendly.
// Columns are appended in lockstep and recycled across runs, so a warm
// pipeline allocates nothing here.
type robColumns struct {
	flags      []uint8
	sub        []isa.Subsystem
	pc         []int32
	dispatchAt []int64
	doneAt     []int64
	dep0       []int64 // absolute ROB index of producer; -1 = ready
	dep1       []int64
	memAddr    []int64

	// Cold columns: read at most once per instruction (dispatch, commit,
	// fault decision), not in the per-cycle scans.
	op        []isa.Opcode
	seq       []int64
	fetchAt   []int64
	issueAt   []int64
	dst       []int16 // encoded destination register, -1 when none
	src1      []int16
	src2      []int16
	faultKind []faultinject.Kind
}

// push appends one fetched instruction; deps start ready and are captured
// at dispatch.
func (r *robColumns) push(fl uint8, sub isa.Subsystem, ev *sim.Event, seq, fetchAt, dispatchAt int64) {
	r.flags = append(r.flags, fl)
	r.sub = append(r.sub, sub)
	r.pc = append(r.pc, int32(ev.PC))
	r.dispatchAt = append(r.dispatchAt, dispatchAt)
	r.doneAt = append(r.doneAt, never)
	r.dep0 = append(r.dep0, -1)
	r.dep1 = append(r.dep1, -1)
	r.memAddr = append(r.memAddr, ev.MemAddr)
	r.op = append(r.op, ev.Op)
	r.seq = append(r.seq, seq)
	r.fetchAt = append(r.fetchAt, fetchAt)
	r.issueAt = append(r.issueAt, 0)
	r.dst = append(r.dst, ev.Dst)
	r.src1 = append(r.src1, ev.Src1)
	r.src2 = append(r.src2, ev.Src2)
	r.faultKind = append(r.faultKind, faultinject.KindNone)
}

// truncate discards entries at and beyond n (fault-flush squash).
func (r *robColumns) truncate(n int) {
	r.flags = r.flags[:n]
	r.sub = r.sub[:n]
	r.pc = r.pc[:n]
	r.dispatchAt = r.dispatchAt[:n]
	r.doneAt = r.doneAt[:n]
	r.dep0 = r.dep0[:n]
	r.dep1 = r.dep1[:n]
	r.memAddr = r.memAddr[:n]
	r.op = r.op[:n]
	r.seq = r.seq[:n]
	r.fetchAt = r.fetchAt[:n]
	r.issueAt = r.issueAt[:n]
	r.dst = r.dst[:n]
	r.src1 = r.src1[:n]
	r.src2 = r.src2[:n]
	r.faultKind = r.faultKind[:n]
}

// drop removes the first n (committed) entries, shifting the rest down in
// place.
func (r *robColumns) drop(n int) {
	k := len(r.flags) - n
	copy(r.flags, r.flags[n:])
	r.flags = r.flags[:k]
	copy(r.sub, r.sub[n:])
	r.sub = r.sub[:k]
	copy(r.pc, r.pc[n:])
	r.pc = r.pc[:k]
	copy(r.dispatchAt, r.dispatchAt[n:])
	r.dispatchAt = r.dispatchAt[:k]
	copy(r.doneAt, r.doneAt[n:])
	r.doneAt = r.doneAt[:k]
	copy(r.dep0, r.dep0[n:])
	r.dep0 = r.dep0[:k]
	copy(r.dep1, r.dep1[n:])
	r.dep1 = r.dep1[:k]
	copy(r.memAddr, r.memAddr[n:])
	r.memAddr = r.memAddr[:k]
	copy(r.op, r.op[n:])
	r.op = r.op[:k]
	copy(r.seq, r.seq[n:])
	r.seq = r.seq[:k]
	copy(r.fetchAt, r.fetchAt[n:])
	r.fetchAt = r.fetchAt[:k]
	copy(r.issueAt, r.issueAt[n:])
	r.issueAt = r.issueAt[:k]
	copy(r.dst, r.dst[n:])
	r.dst = r.dst[:k]
	copy(r.src1, r.src1[n:])
	r.src1 = r.src1[:k]
	copy(r.src2, r.src2[n:])
	r.src2 = r.src2[:k]
	copy(r.faultKind, r.faultKind[n:])
	r.faultKind = r.faultKind[:k]
}

// reset empties the store, keeping column capacity.
func (r *robColumns) reset() { r.truncate(0) }

// Pipeline is the trace-driven out-of-order timing model. Feed it the
// dynamic instruction stream (in program order) and call Finish to drain.
// A pipeline is reusable: Reset restores the power-on state while keeping
// every buffer, so a warm pipeline runs its steady state without heap
// allocations.
type Pipeline struct {
	cfg    Config
	bpred  *GsharePredictor
	icache *Cache
	dcache *Cache

	cycle int64

	// pending holds trace events not yet fetched, plus the most recent
	// tail−head consumed events, so a fault-triggered flush can roll
	// pendHead back and refetch squashed instructions. pendBase is the
	// dynamic index of pending[0] (events dropped by compaction so far).
	pending  []sim.Event
	pendHead int
	pendBase int64

	// rob holds fetched instructions in struct-of-arrays layout; the
	// absolute index space survives compaction via robBase.
	rob      robColumns
	robBase  int64 // absolute index of rob column 0
	head     int64 // next absolute index to commit
	tail     int64 // next absolute index to allocate
	dispatch int64 // next absolute index to dispatch

	// rename maps encoded architectural registers (class*32+num, one slot
	// per register in either class) to the absolute ROB index of their most
	// recent producer; -1 means no in-flight producer.
	rename [64]int64

	// Fetch state.
	fetchBlockedOn   int64 // absolute index of unresolved mispredicted branch, -1 none
	icacheStallUntil int64
	lastFetchLine    int64

	// Fault state: the attached plan (nil = no injection) and the absolute
	// index of a flush-faulted instruction the front end is waiting on
	// (-1 = none), mirroring fetchBlockedOn.
	faults           *faultinject.Plan
	recoverBlockedOn int64

	// Occupancy.
	intWinCount int
	fpWinCount  int
	inFlight    int
	intDefs     int
	fpDefs      int

	// issuedOldestPC/issuedOldestSub identify the oldest instruction issued
	// in the current cycle, for per-PC cycle attribution.
	issuedOldestPC  int
	issuedOldestSub isa.Subsystem

	// Running occupancy sums (Σ over cycles of the end-of-cycle counts)
	// alongside the occupancy histograms: the timeline recorder differences
	// them at window boundaries to get per-window occupancy means in O(1).
	occIntSum int64
	occFpSum  int64
	occROBSum int64

	stats   Stats
	done    bool
	journal *Journal
	profile *CycleProfile
	rec     *TimelineRecorder
}

// NewPipeline builds a timing model for cfg.
func NewPipeline(cfg Config) *Pipeline {
	p := &Pipeline{
		cfg:    cfg,
		bpred:  NewGshare(cfg.BpredCounters, cfg.BpredHistory),
		icache: NewCache(cfg.ICacheSize, cfg.ICacheWays, cfg.ICacheLine),
		dcache: NewCache(cfg.DCacheSize, cfg.DCacheWays, cfg.DCacheLine),
	}
	p.Reset()
	return p
}

// Reset restores the pipeline to its power-on state for a new run, keeping
// all buffers (ROB columns, pending queue, histogram slices, cache and
// predictor tables) so a warm pipeline allocates nothing. Any attached
// journal, profile, fault plan, or flight recorder is detached.
func (p *Pipeline) Reset() {
	p.bpred.Reset()
	p.icache.Reset()
	p.dcache.Reset()
	p.cycle = 0
	p.resetCore()
	p.faults = nil
	p.resetStats()
	p.done = false
	p.journal = nil
	p.profile = nil
	p.rec = nil
}

// resetStats zeroes the statistics in place, recycling the histogram
// slices.
func (p *Pipeline) resetStats() {
	slots, iw, fw, rob := p.stats.IssueSlotCycles, p.stats.IntWinOcc, p.stats.FpWinOcc, p.stats.ROBOcc
	if slots == nil {
		slots = make([]int64, p.cfg.IssueWidth+1)
		iw = make([]int64, p.cfg.IntWindow+1)
		fw = make([]int64, p.cfg.FpWindow+1)
		rob = make([]int64, p.cfg.MaxInFlight+1)
	} else {
		clear(slots)
		clear(iw)
		clear(fw)
		clear(rob)
	}
	p.stats = Stats{IssueSlotCycles: slots, IntWinOcc: iw, FpWinOcc: fw, ROBOcc: rob}
	p.occIntSum, p.occFpSum, p.occROBSum = 0, 0, 0
}

// Feed appends one traced instruction and advances the clock as needed to
// bound buffering. Suitable as a sim.Machine Trace callback target.
func (p *Pipeline) Feed(ev sim.Event) {
	p.pending = append(p.pending, ev)
	if len(p.pending)-p.pendHead > 16384 {
		for len(p.pending)-p.pendHead > 8192 {
			p.step()
		}
		// Compact the pending buffer, retaining the last tail−head consumed
		// events: those belong to uncommitted instructions a fault flush may
		// still squash and refetch.
		drop := p.pendHead - int(p.tail-p.head)
		if drop > 0 {
			copy(p.pending, p.pending[drop:])
			p.pending = p.pending[:len(p.pending)-drop]
			p.pendHead -= drop
			p.pendBase += int64(drop)
		}
	}
}

// Finish drains the pipeline and returns the final statistics.
func (p *Pipeline) Finish() Stats {
	p.done = true
	for p.pendHead < len(p.pending) || p.head < p.tail {
		p.step()
	}
	if p.rec != nil {
		p.rec.flush(p)
	}
	p.stats.Cycles = p.cycle
	p.stats.BpredLookups = p.bpred.Lookups
	p.stats.BpredMispredicts = p.bpred.Mispredicts
	p.stats.ICacheMissRate = p.icache.MissRate()
	p.stats.DCacheMissRate = p.dcache.MissRate()
	return p.stats
}

// idx converts an absolute ROB index into a column index.
func (p *Pipeline) idx(abs int64) int { return int(abs - p.robBase) }

// step advances the machine by one cycle: commit, issue, dispatch, fetch.
// Stall classification runs between issue and dispatch so it sees exactly
// the machine state the issue stage saw; occupancy is sampled at the end
// of the cycle.
func (p *Pipeline) step() {
	p.cycle++
	p.commit()
	issued := p.issue()
	p.accountIssue(issued)
	p.dispatchStage()
	p.fetch()
	p.sampleOccupancy()
	if p.rec != nil && p.cycle >= p.rec.nextBoundary {
		p.rec.roll(p)
	}
}

func (p *Pipeline) commit() {
	for n := 0; n < p.cfg.RetireWidth && p.head < p.tail; n++ {
		i := p.idx(p.head)
		fl := p.rob.flags[i]
		if fl&fIssued == 0 || p.rob.doneAt[i] > p.cycle {
			return
		}
		if dst := p.rob.dst[i]; dst >= 0 {
			if dst < 32 {
				p.intDefs--
			} else {
				p.fpDefs--
			}
		}
		p.inFlight--
		p.stats.Instructions++
		if p.journal != nil {
			p.journal.record(JournalEntry{
				Seq:      p.stats.Instructions,
				PC:       int(p.rob.pc[i]),
				Op:       p.rob.op[i],
				Sub:      p.rob.sub[i],
				FetchAt:  p.rob.fetchAt[i],
				IssueAt:  p.rob.issueAt[i],
				DoneAt:   p.rob.doneAt[i],
				CommitAt: p.cycle,
				Misp:     fl&fMisp != 0,
			})
		}
		if p.profile != nil {
			p.profile.retire(int(p.rob.pc[i]))
		}
		p.head++
	}
	// Trim the committed prefix when it grows large, keeping entries that
	// may still be referenced as dependencies (committed entries are done
	// by definition, so references to indices below robBase are ready).
	if p.head-p.robBase > 8192 {
		p.rob.drop(int(p.head - p.robBase))
		p.robBase = p.head
	}
}

// depReady reports whether producer d (an absolute ROB index or -1) has
// finished executing.
func (p *Pipeline) depReady(d int64) bool {
	if d < p.robBase { // -1, or committed long ago
		return true
	}
	j := p.idx(d)
	return p.rob.flags[j]&fIssued != 0 && p.rob.doneAt[j] <= p.cycle
}

func (p *Pipeline) issue() int {
	total := 0
	intALU := 0
	fpALU := 0
	ports := 0
	intIssued, fpaIssued := 0, 0
	flushAt := int64(-1) // faulted entry that triggers a pipeline flush
	p.issuedOldestPC = UnknownPC

	// Oldest-first scan over the issue windows.
	for abs := p.head; abs < p.tail && total < p.cfg.IssueWidth; abs++ {
		i := p.idx(abs)
		fl := p.rob.flags[i]
		if fl&(fDispatched|fIssued) != fDispatched || p.rob.dispatchAt[i] >= p.cycle {
			continue
		}
		if !p.depReady(p.rob.dep0[i]) || !p.depReady(p.rob.dep1[i]) {
			continue
		}
		sub := p.rob.sub[i]
		isMem := fl&fIsMem != 0
		// Structural hazards.
		if isMem {
			if ports >= p.cfg.LdStPorts {
				continue
			}
		} else if sub == isa.SubINT {
			if intALU >= p.cfg.IntALUs {
				continue
			}
		} else {
			if fpALU >= p.cfg.FpALUs {
				continue
			}
		}
		if fl&fIsLoad != 0 {
			// Loads execute only once all prior store addresses are known
			// (Table 1); an unissued older store blocks this load. The scan
			// is oldest-first, so any older store either issued already or
			// appears before this load; track via a lookback.
			blocked := false
			for s := p.head; s < abs; s++ {
				if p.rob.flags[p.idx(s)]&(fIsStore|fIssued) == fIsStore {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
		}

		// Issue.
		lat := int64(isa.Latency(p.rob.op[i]))
		if sub == isa.SubFPa && !isMem {
			lat += int64(p.cfg.FPaExtraLatency)
		}
		if fl&fIsLoad != 0 {
			// Store-to-load forwarding on a word-address match.
			forwarded := false
			for s := p.head; s < abs; s++ {
				sj := p.idx(s)
				if p.rob.flags[sj]&fIsStore != 0 && p.rob.memAddr[sj] == p.rob.memAddr[i] {
					forwarded = true
				}
			}
			if forwarded {
				lat = int64(p.cfg.DCacheHit)
			} else if p.dcache.Access(p.rob.memAddr[i], false) {
				lat = int64(p.cfg.DCacheHit)
			} else {
				lat = int64(p.cfg.DCacheHit + p.cfg.DCacheMissPenalty)
				p.rob.flags[i] |= fDmiss
			}
			p.stats.Loads++
		} else if fl&fIsStore != 0 {
			p.dcache.Access(p.rob.memAddr[i], true)
			lat = 1
			p.stats.Stores++
		}
		// Transient-fault injection: the plan decides, purely from the
		// dynamic instruction index, whether this instance faults. Parity
		// on the result bus detects the fault; the recovery cost lands on
		// this instruction's latency, and flush-class faults additionally
		// squash all younger in-flight work (handled after issue below).
		if p.faults != nil {
			if kind := p.faults.Decide(p.rob.seq[i], p.rob.op[i], p.rob.dst[i] >= 0); kind != faultinject.KindNone {
				rec := p.faults.Recovery(kind, lat)
				p.rob.faultKind[i] = kind
				p.faults.Record(faultinject.Fault{
					Seq: p.rob.seq[i], PC: int(p.rob.pc[i]), Op: p.rob.op[i], Kind: kind,
					Cycle: p.cycle, Recovery: rec,
				})
				p.stats.FaultsInjected++
				p.stats.FaultRecoveryCycles += rec
				lat += rec
				if kind.Flushes() {
					flushAt = abs
				}
			}
		}
		p.rob.flags[i] |= fIssued
		p.rob.issueAt[i] = p.cycle
		p.rob.doneAt[i] = p.cycle + lat
		if p.issuedOldestPC == UnknownPC {
			// Oldest-first scan: the first issue of the cycle is the one
			// retirement is waiting on; active cycles are charged to it.
			p.issuedOldestPC = int(p.rob.pc[i])
			p.issuedOldestSub = sub
		}
		// Leaving the issue window frees the entry.
		if sub == isa.SubINT || isMem {
			p.intWinCount--
		} else {
			p.fpWinCount--
		}
		total++
		if isMem {
			ports++
		} else if sub == isa.SubINT {
			intALU++
		} else {
			fpALU++
		}
		switch sub {
		case isa.SubINT:
			p.stats.IssuedINT++
			intIssued++
		case isa.SubFP:
			p.stats.IssuedFP++
		case isa.SubFPa:
			p.stats.IssuedFPa++
			fpaIssued++
		}
		// Parity flush: squash everything younger than the faulted
		// instruction and stop issuing — the scan's view of the window is
		// stale once the tail moves.
		if flushAt >= 0 {
			p.squashYounger(flushAt)
			p.recoverBlockedOn = flushAt
			break
		}
	}
	if intIssued == 0 && fpaIssued > 0 {
		p.stats.IntIdleFPaBusy++
	}
	return total
}

// squashYounger implements the fault-recovery pipeline flush: every
// instruction younger than the faulted one at abs is discarded and will be
// refetched from the pending buffer once the front end unblocks. Rename and
// occupancy state are rebuilt from the surviving entries.
func (p *Pipeline) squashYounger(abs int64) {
	squash := p.tail - (abs + 1)
	if squash <= 0 {
		return
	}
	// The squashed entries consumed the most recent `squash` pending
	// events; compaction keeps at least tail−head consumed events around,
	// so rolling pendHead back re-exposes exactly those events.
	p.pendHead -= int(squash)
	p.rob.truncate(p.idx(abs + 1))
	p.tail = abs + 1
	if p.dispatch > p.tail {
		p.dispatch = p.tail
	}
	if p.fetchBlockedOn >= p.tail {
		p.fetchBlockedOn = -1
	}
	p.lastFetchLine = -1 // refetch probes the I-cache afresh
	// Rebuild the rename table from surviving dispatched producers.
	// Mappings to committed producers are dropped, which is equivalent: a
	// committed value is ready either way.
	for r := range p.rename {
		p.rename[r] = -1
	}
	for a := p.head; a < p.dispatch; a++ {
		i := p.idx(a)
		if p.rob.flags[i]&fDispatched != 0 && p.rob.dst[i] >= 0 {
			p.rename[p.rob.dst[i]] = a
		}
	}
	// Rebuild occupancy counters from the surviving window contents.
	p.intWinCount, p.fpWinCount, p.inFlight = 0, 0, 0
	p.intDefs, p.fpDefs = 0, 0
	for a := p.head; a < p.tail; a++ {
		i := p.idx(a)
		fl := p.rob.flags[i]
		if fl&fDispatched == 0 {
			continue
		}
		p.inFlight++
		if dst := p.rob.dst[i]; dst >= 0 {
			if dst < 32 {
				p.intDefs++
			} else {
				p.fpDefs++
			}
		}
		if fl&fIssued == 0 {
			if p.rob.sub[i] == isa.SubINT || fl&fIsMem != 0 {
				p.intWinCount++
			} else {
				p.fpWinCount++
			}
		}
	}
}

func (p *Pipeline) dispatchStage() {
	for n := 0; n < p.cfg.DecodeWidth && p.dispatch < p.tail; n++ {
		i := p.idx(p.dispatch)
		// One-cycle front-end latency after fetch.
		if p.rob.dispatchAt[i] > p.cycle {
			return
		}
		if p.inFlight >= p.cfg.MaxInFlight {
			return
		}
		fl := p.rob.flags[i]
		// Window space.
		intSide := p.rob.sub[i] == isa.SubINT || fl&fIsMem != 0
		if intSide && p.intWinCount >= p.cfg.IntWindow {
			return
		}
		if !intSide && p.fpWinCount >= p.cfg.FpWindow {
			return
		}
		// Physical registers for renamed destinations.
		dst := p.rob.dst[i]
		if dst >= 0 {
			if dst < 32 {
				if p.intDefs >= p.cfg.IntPhysRegs-32 {
					return
				}
			} else if p.fpDefs >= p.cfg.FpPhysRegs-32 {
				return
			}
		}
		// Rename: capture producers, claim destination.
		if s := p.rob.src1[i]; s >= 0 {
			p.rob.dep0[i] = p.rename[s]
		} else {
			p.rob.dep0[i] = -1
		}
		if s := p.rob.src2[i]; s >= 0 {
			p.rob.dep1[i] = p.rename[s]
		} else {
			p.rob.dep1[i] = -1
		}
		if dst >= 0 {
			p.rename[dst] = p.dispatch
			if dst < 32 {
				p.intDefs++
			} else {
				p.fpDefs++
			}
		}
		p.rob.flags[i] = fl | fDispatched
		if intSide {
			p.intWinCount++
		} else {
			p.fpWinCount++
		}
		p.inFlight++
		p.dispatch++
	}
}

func (p *Pipeline) fetch() {
	// Blocked refilling the front end after a fault-recovery flush?
	if p.recoverBlockedOn >= 0 {
		if p.recoverBlockedOn >= p.robBase { // otherwise committed: recovered
			if p.rob.doneAt[p.idx(p.recoverBlockedOn)] > p.cycle {
				p.stats.FetchFaultStalls++
				return
			}
		}
		p.recoverBlockedOn = -1
	}
	// Blocked on an unresolved mispredicted branch?
	if p.fetchBlockedOn >= 0 {
		if p.fetchBlockedOn >= p.robBase { // otherwise committed: resolved
			i := p.idx(p.fetchBlockedOn)
			if p.rob.flags[i]&fIssued == 0 || p.rob.doneAt[i] > p.cycle {
				p.stats.FetchMispredictStalls++
				return
			}
		}
		p.fetchBlockedOn = -1
	}
	if p.icacheStallUntil > p.cycle {
		p.stats.FetchICacheStalls++
		return
	}
	// The fetch buffer holds at most two fetch groups awaiting dispatch.
	fetchBuf := int64(2 * p.cfg.FetchWidth)
	for n := 0; n < p.cfg.FetchWidth && p.pendHead < len(p.pending); n++ {
		if p.tail-p.dispatch >= fetchBuf {
			return
		}
		ev := &p.pending[p.pendHead]
		// Instruction cache: one probe per new line touched (instructions
		// are modeled as 8 bytes).
		line := (int64(ev.PC) * 8) / int64(p.cfg.ICacheLine)
		if line != p.lastFetchLine {
			p.lastFetchLine = line
			if !p.icache.Access(int64(ev.PC)*8, false) {
				p.icacheStallUntil = p.cycle + int64(p.cfg.ICacheMissPenalty)
				return // line arrives after the penalty; retry then
			}
		}
		seq := p.pendBase + int64(p.pendHead)
		p.pendHead++

		abs := p.tail
		var fl uint8
		if isa.IsMem(ev.Op) {
			fl |= fIsMem
		}
		if isa.IsLoad(ev.Op) {
			fl |= fIsLoad
		}
		if isa.IsStore(ev.Op) {
			fl |= fIsStore
		}
		isBr := isa.IsCondBranch(ev.Op)
		if isBr {
			fl |= fIsBr
		}
		p.rob.push(fl, isa.ExecSubsystem(ev.Op), ev, seq, p.cycle, p.cycle+1)
		p.tail++

		if isBr {
			correct := p.bpred.PredictAndUpdate(ev.PC, ev.Taken)
			if !correct {
				p.rob.flags[p.idx(abs)] |= fMisp
				p.fetchBlockedOn = abs
				return
			}
		}
	}
}
