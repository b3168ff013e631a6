package uarch

import (
	"fmt"
	"math"
	"math/bits"

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
	// The histogram slices below are owned by the Machine that produced
	// them and are recycled by its next run; copy them if the Stats must
	// outlive a reused machine. (Runs through the package-level Run
	// helpers use a fresh machine per call and are unaffected.)
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

// robCap is the capacity of the ROB ring, a power of two so an absolute
// index maps to its slot as abs & robMask. The ring holds every fetched,
// uncommitted instruction: at most MaxInFlight dispatched ones plus the
// 2·FetchWidth fetch buffer. newPipeline rejects a config that does not fit.
const (
	robCap  = 128
	robMask = robCap - 1
)

// Per-instruction boolean state, packed into robEntry.flags. The static
// flags (memory access, load, store, conditional branch) come from the
// instruction's staticInst; the rest are set as it flows down the pipeline.
const (
	fIssued = uint8(1) << iota
	fIsMem
	fIsLoad
	fIsStore
	fCondBranch
	fMisp  // conditional branch that the predictor missed
	fDmiss // load that missed the D-cache
)

// staticInst is what the timing model needs of one static instruction.
// Every field is fixed per PC, so the table is decoded once per run and
// the functional simulator's records carry only the dynamic rest: the PC,
// the memory address and the branch outcome.
type staticInst struct {
	op    isa.Opcode
	sub   isa.Subsystem
	flags uint8 // fIsMem, fIsLoad, fIsStore, fCondBranch
	dst   int16 // encoded registers (isa.Operands)
	src1  int16
	src2  int16
	lat   int32 // issue latency; FPa ALU ops include FPaExtraLatency
	line  int64 // I-cache line (instructions are modeled as 8 bytes)
}

// decode builds the static table for prog, reusing its backing array so a
// warm machine allocates nothing.
func (p *pipeline) decode(prog *isa.Program) {
	p.static = p.static[:0]
	for pc := range prog.Insts {
		in := &prog.Insts[pc]
		si := staticInst{
			op:   in.Op,
			sub:  isa.ExecSubsystem(in.Op),
			lat:  int32(isa.Latency(in.Op)),
			line: int64(pc) * 8 / int64(p.cfg.ICacheLine),
		}
		si.dst, si.src1, si.src2 = isa.Operands(in)
		switch {
		case isa.IsLoad(in.Op):
			si.flags = fIsMem | fIsLoad
		case isa.IsStore(in.Op):
			si.flags = fIsMem | fIsStore
		case isa.IsCondBranch(in.Op):
			si.flags = fCondBranch
		}
		if si.sub == isa.SubFPa && si.flags&fIsMem == 0 {
			si.lat += int32(p.cfg.FPaExtraLatency)
		}
		p.static = append(p.static, si)
	}
}

// robEntry is one fetched, uncommitted instruction in the ROB ring. The
// first fields are what issue, wakeup and commit touch every cycle; the
// rest are read once per instruction (dispatch, fault decision, journal,
// stall blame).
type robEntry struct {
	flags   uint8
	sub     isa.Subsystem
	op      isa.Opcode
	pending uint8 // producers not yet issued; the entry is ready at 0
	// consHead starts this entry's consumer list: a link is slot<<1|k for
	// source operand k of the consumer in that ring slot, -1 ends the list.
	// consNext[k] continues the list of the producer of operand k.
	consHead int32
	consNext [2]int32
	readyAt  int64 // latest doneAt among producers already issued
	doneAt   int64 // never until issued
	memAddr  int64

	pc        int32
	dst       int16 // encoded destination register, -1 when none
	src1      int16
	src2      int16
	faultKind faultinject.Kind
	lat       int32    // staticInst.lat; issue times loads and stores itself
	dep       [2]int64 // absolute index of each source's producer; -1 = none
	fetchAt   int64
	issueAt   int64
}

// pipeline is the trace-driven out-of-order timing model. Machine.Run
// steps the functional simulator's records into pending and steps the
// pipeline through them; finish drains it. A pipeline is reusable: reset
// restores the power-on state while keeping every buffer, so a warm
// pipeline runs its steady state without heap allocations.
type pipeline struct {
	cfg    Config
	bpred  *GsharePredictor
	icache *Cache
	dcache *Cache

	cycle int64

	// static is the decoded program, indexed by PC (see decode).
	static []staticInst

	// pending holds functional records not yet fetched, plus the most
	// recent tail−head consumed records, so a fault-triggered flush can
	// roll pendHead back and refetch squashed instructions. Its capacity is
	// fixed at newPipeline.
	pending  []sim.Record
	pendHead int

	// rob is the ring of fetched, uncommitted instructions, indexed by
	// absolute index & robMask: entries in [head, tail) are live, and an
	// absolute index below head has committed.
	rob      [robCap]robEntry
	head     int64 // next absolute index to commit
	tail     int64 // next absolute index to allocate
	dispatch int64 // next absolute index to dispatch
	// unissued is a lower bound on the oldest dispatched, unissued entry:
	// everything in [head, unissued) has issued.
	unissued int64

	// ready is the issue stage's wakeup/select set, one bit per ring slot:
	// dispatched, unissued entries whose producers have all issued.
	ready [robCap / 64]uint64

	// The store queue: absolute indices of the fetched, uncommitted stores
	// in age order, in a ring over [sqHead, sqTail).
	sq     [robCap]int64
	sqHead int64
	sqTail int64

	// rename maps encoded architectural registers (class*32+num, one slot
	// per register in either class) to the absolute ROB index of their most
	// recent producer; -1 means none, and an index below head has committed.
	rename [64]int64

	// Fetch state. fetchBlockedSub/fetchBlockedPC identify the branch
	// fetch is blocked on, recorded when it blocks so the stall blame does
	// not depend on the branch still being in the ROB.
	fetchBlockedOn   int64 // absolute index of unresolved mispredicted branch, -1 none
	fetchBlockedSub  isa.Subsystem
	fetchBlockedPC   int
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
	journal *Journal
	profile *CycleProfile
	rec     *TimelineRecorder
}

// A detailed run (Machine.Run) steps the functional simulator
// batchSize records at a time, then steps the pipeline while more than
// lookahead records are buffered. Fetch takes at most FetchWidth records a
// cycle, and newPipeline's ring check bounds FetchWidth by lookahead, so
// fetch never runs dry before HALT and the cycles do not depend on either
// constant.
const (
	batchSize = 1024
	lookahead = robCap / 2
)

// newPipeline builds a timing model for cfg. It panics when cfg can hold
// more uncommitted instructions (MaxInFlight + 2·FetchWidth) than the ROB
// ring: configs are built in code, so that is a programming error.
func newPipeline(cfg Config) *pipeline {
	if n := cfg.MaxInFlight + 2*cfg.FetchWidth; n > robCap {
		panic(fmt.Sprintf("uarch: config %q can hold %d uncommitted instructions; the ROB ring holds %d", cfg.Name, n, robCap))
	}
	p := &pipeline{
		cfg:    cfg,
		bpred:  NewGshare(cfg.BpredCounters, cfg.BpredHistory),
		icache: NewCache(cfg.ICacheSize, cfg.ICacheWays, cfg.ICacheLine),
		dcache: NewCache(cfg.DCacheSize, cfg.DCacheWays, cfg.DCacheLine),
		// A batch lands behind at most lookahead unfetched and robCap
		// consumed records; a fast-mode window lands in an empty buffer.
		pending: make([]sim.Record, 0, max(batchSize+lookahead+robCap, windowCap)),
	}
	p.reset()
	return p
}

// reset restores the pipeline to its power-on state for a new run, keeping
// all buffers (pending queue, static table, histogram slices, cache and
// predictor tables) so a warm pipeline allocates nothing. Any attached
// journal, profile, fault plan, or flight recorder is detached.
func (p *pipeline) reset() {
	p.bpred.Reset()
	p.icache.Reset()
	p.dcache.Reset()
	p.cycle = 0
	p.resetCore()
	p.faults = nil
	p.resetStats()
	p.journal = nil
	p.profile = nil
	p.rec = nil
}

// resetStats zeroes the statistics in place, recycling the histogram
// slices.
func (p *pipeline) resetStats() {
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

// compact drops consumed records from the front of pending, keeping the
// last tail−head: those belong to uncommitted instructions a fault flush
// may still squash and refetch.
func (p *pipeline) compact() {
	if drop := p.pendHead - int(p.tail-p.head); drop > 0 {
		p.pending = p.pending[:copy(p.pending, p.pending[drop:])]
		p.pendHead -= drop
	}
}

// finish drains the pipeline once pending holds every record up to HALT
// and returns the final statistics.
func (p *pipeline) finish() Stats {
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

// step advances the machine by one cycle: commit, issue, dispatch, fetch.
// Stall classification runs between issue and dispatch so it sees exactly
// the machine state the issue stage saw; occupancy is sampled at the end
// of the cycle.
func (p *pipeline) step() {
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

func (p *pipeline) commit() {
	for n := 0; n < p.cfg.RetireWidth && p.head < p.tail; n++ {
		e := &p.rob[p.head&robMask]
		if e.doneAt > p.cycle { // unissued entries hold never
			return
		}
		if e.dst >= 0 {
			if e.dst < 32 {
				p.intDefs--
			} else {
				p.fpDefs--
			}
		}
		if e.flags&fIsStore != 0 {
			p.sqHead++
		}
		p.inFlight--
		p.stats.Instructions++
		if p.journal != nil {
			p.journal.record(JournalEntry{
				Seq:      p.stats.Instructions,
				PC:       int(e.pc),
				Op:       e.op,
				Sub:      e.sub,
				FetchAt:  e.fetchAt,
				IssueAt:  e.issueAt,
				DoneAt:   e.doneAt,
				CommitAt: p.cycle,
				Misp:     e.flags&fMisp != 0,
			})
		}
		if p.profile != nil {
			p.profile.retire(int(e.pc))
		}
		p.head++
	}
}

// absOf returns the absolute index of the live entry in a ring slot.
func (p *pipeline) absOf(slot int) int64 {
	return p.head + (int64(slot)-p.head)&robMask
}

// setReady and clearReady add and remove a ring slot in the ready set.
func (p *pipeline) setReady(slot int)   { p.ready[slot>>6] |= 1 << (slot & 63) }
func (p *pipeline) clearReady(slot int) { p.ready[slot>>6] &^= 1 << (slot & 63) }

// nextReady returns the oldest ready entry at absolute index from or
// younger, or -1. Only live slots carry ready bits, so a set bit below
// tail is the answer; the scan reads one word per 64-slot block of
// [from, tail).
func (p *pipeline) nextReady(from int64) int64 {
	for a := from; a < p.tail; {
		s := a & robMask
		if w := p.ready[s>>6] >> (s & 63); w != 0 {
			return a + int64(bits.TrailingZeros64(w))
		}
		a += 64 - s&63
	}
	return -1
}

// wake walks the consumer list of a producer that just issued: each
// consumer folds the producer's completion cycle into its readyAt and joins
// the ready set once its last producer has issued.
func (p *pipeline) wake(e *robEntry) {
	for l := e.consHead; l >= 0; {
		c := &p.rob[l>>1]
		c.readyAt = max(c.readyAt, e.doneAt)
		c.pending--
		if c.pending == 0 {
			p.setReady(int(l >> 1))
		}
		l = c.consNext[l&1]
	}
	e.consHead = -1
}

// olderStores scans the uncommitted stores older than the load at abs.
// waiting reports one that has not issued: loads execute only once all
// prior store addresses are known (Table 1). Otherwise forwarded reports
// one that writes the load's word address (store-to-load forwarding).
func (p *pipeline) olderStores(abs, addr int64) (waiting, forwarded bool) {
	for k := p.sqHead; k < p.sqTail; k++ {
		sa := p.sq[k&robMask]
		if sa >= abs {
			break
		}
		st := &p.rob[sa&robMask]
		if st.flags&fIssued == 0 {
			return true, false
		}
		forwarded = forwarded || st.memAddr == addr
	}
	return false, forwarded
}

// issue selects up to IssueWidth ready entries, oldest first, subject to
// the functional-unit counts and the load/store ordering rule.
func (p *pipeline) issue() int {
	total := 0
	intALU := 0
	fpALU := 0
	ports := 0
	intIssued, fpaIssued := 0, 0
	p.issuedOldestPC = UnknownPC

	for abs := p.nextReady(p.head); abs >= 0 && total < p.cfg.IssueWidth; abs = p.nextReady(abs + 1) {
		slot := int(abs & robMask)
		e := &p.rob[slot]
		if e.readyAt > p.cycle {
			continue
		}
		sub := e.sub
		isMem := e.flags&fIsMem != 0
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
		isLoad := e.flags&fIsLoad != 0
		var forwarded bool
		if isLoad {
			var waiting bool
			if waiting, forwarded = p.olderStores(abs, e.memAddr); waiting {
				continue
			}
		}

		// Issue.
		lat := int64(e.lat)
		if isLoad {
			if forwarded || p.dcache.Access(e.memAddr, false) {
				lat = int64(p.cfg.DCacheHit)
			} else {
				lat = int64(p.cfg.DCacheHit + p.cfg.DCacheMissPenalty)
				e.flags |= fDmiss
			}
			p.stats.Loads++
		} else if e.flags&fIsStore != 0 {
			p.dcache.Access(e.memAddr, true)
			lat = 1
			p.stats.Stores++
		}
		// Transient-fault injection: the plan decides, purely from the
		// dynamic instruction index (the absolute ROB index), whether this
		// instance faults. Parity on the result bus detects the fault; the
		// recovery cost lands on this instruction's latency, and flush-class
		// faults additionally squash all younger in-flight work (handled
		// after issue below).
		flush := false
		if p.faults != nil {
			if kind := p.faults.Decide(abs, e.op, e.dst >= 0); kind != faultinject.KindNone {
				rec := p.faults.Recovery(kind, lat)
				e.faultKind = kind
				p.faults.Record(faultinject.Fault{
					Seq: abs, PC: int(e.pc), Op: e.op, Kind: kind,
					Cycle: p.cycle, Recovery: rec,
				})
				p.stats.FaultsInjected++
				p.stats.FaultRecoveryCycles += rec
				lat += rec
				flush = kind.Flushes()
			}
		}
		e.flags |= fIssued
		e.issueAt = p.cycle
		e.doneAt = p.cycle + lat
		p.clearReady(slot)
		p.wake(e)
		if p.issuedOldestPC == UnknownPC {
			// Oldest-first selection: the first issue of the cycle is the
			// one retirement is waiting on; active cycles are charged to it.
			p.issuedOldestPC = int(e.pc)
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
		// instruction and stop issuing this cycle.
		if flush {
			p.squashYounger(abs)
			p.recoverBlockedOn = abs
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
// refetched from the pending buffer once the front end unblocks. The
// squashed entries leave the ready set, the store queue and their
// producers' consumer lists; rename and occupancy state are rebuilt from
// the surviving entries.
func (p *pipeline) squashYounger(abs int64) {
	squash := p.tail - (abs + 1)
	if squash <= 0 {
		return
	}
	// The squashed entries consumed the most recent `squash` pending
	// records; compaction keeps at least tail−head consumed records around,
	// so rolling pendHead back re-exposes exactly those records.
	p.pendHead -= int(squash)
	for a := abs + 1; a < p.tail; a++ {
		p.clearReady(int(a & robMask))
	}
	// Consumer lists run youngest first, so the squashed consumers of a
	// surviving producer are a prefix of its list.
	for a := p.head; a <= abs; a++ {
		e := &p.rob[a&robMask]
		for e.consHead >= 0 && p.absOf(int(e.consHead>>1)) > abs {
			e.consHead = p.rob[e.consHead>>1].consNext[e.consHead&1]
		}
	}
	for p.sqTail > p.sqHead && p.sq[(p.sqTail-1)&robMask] > abs {
		p.sqTail--
	}
	p.tail = abs + 1
	p.dispatch = min(p.dispatch, p.tail)
	p.unissued = min(p.unissued, p.dispatch)
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
		if dst := p.rob[a&robMask].dst; dst >= 0 {
			p.rename[dst] = a
		}
	}
	// Rebuild occupancy counters from the surviving window contents.
	p.intWinCount, p.fpWinCount = 0, 0
	p.inFlight = int(p.dispatch - p.head)
	p.intDefs, p.fpDefs = 0, 0
	for a := p.head; a < p.dispatch; a++ {
		e := &p.rob[a&robMask]
		if e.dst >= 0 {
			if e.dst < 32 {
				p.intDefs++
			} else {
				p.fpDefs++
			}
		}
		if e.flags&fIssued == 0 {
			if e.sub == isa.SubINT || e.flags&fIsMem != 0 {
				p.intWinCount++
			} else {
				p.fpWinCount++
			}
		}
	}
}

func (p *pipeline) dispatchStage() {
	for n := 0; n < p.cfg.DecodeWidth && p.dispatch < p.tail; n++ {
		slot := int(p.dispatch & robMask)
		e := &p.rob[slot]
		// One-cycle front-end latency after fetch.
		if e.fetchAt >= p.cycle {
			return
		}
		if p.inFlight >= p.cfg.MaxInFlight {
			return
		}
		// Window space.
		intSide := e.sub == isa.SubINT || e.flags&fIsMem != 0
		if intSide && p.intWinCount >= p.cfg.IntWindow {
			return
		}
		if !intSide && p.fpWinCount >= p.cfg.FpWindow {
			return
		}
		// Physical registers for renamed destinations.
		dst := e.dst
		if dst >= 0 {
			if dst < 32 {
				if p.intDefs >= p.cfg.IntPhysRegs-32 {
					return
				}
			} else if p.fpDefs >= p.cfg.FpPhysRegs-32 {
				return
			}
		}
		// Rename: link each source to its in-flight producer. A producer
		// that has issued only bounds readyAt; an unissued one gets this
		// operand on its consumer list and wakes it when it issues.
		for k, src := range [2]int16{e.src1, e.src2} {
			d := int64(-1)
			if src >= 0 {
				d = p.rename[src]
			}
			e.dep[k] = d
			if d < p.head { // no producer, or it has committed
				continue
			}
			pr := &p.rob[d&robMask]
			if pr.flags&fIssued != 0 {
				e.readyAt = max(e.readyAt, pr.doneAt)
			} else {
				e.consNext[k] = pr.consHead
				pr.consHead = int32(slot<<1 | k)
				e.pending++
			}
		}
		if e.pending == 0 {
			p.setReady(slot)
		}
		if dst >= 0 {
			p.rename[dst] = p.dispatch
			if dst < 32 {
				p.intDefs++
			} else {
				p.fpDefs++
			}
		}
		if intSide {
			p.intWinCount++
		} else {
			p.fpWinCount++
		}
		p.inFlight++
		p.dispatch++
	}
}

func (p *pipeline) fetch() {
	// Blocked refilling the front end after a fault-recovery flush? A
	// faulted instruction below head has committed: recovered.
	if p.recoverBlockedOn >= 0 {
		if p.recoverBlockedOn >= p.head && p.rob[p.recoverBlockedOn&robMask].doneAt > p.cycle {
			p.stats.FetchFaultStalls++
			return
		}
		p.recoverBlockedOn = -1
	}
	// Blocked on an unresolved mispredicted branch?
	if p.fetchBlockedOn >= 0 {
		if p.fetchBlockedOn >= p.head && p.rob[p.fetchBlockedOn&robMask].doneAt > p.cycle {
			p.stats.FetchMispredictStalls++
			return
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
		r := &p.pending[p.pendHead]
		si := &p.static[r.PC]
		// Instruction cache: one probe per new line touched.
		if si.line != p.lastFetchLine {
			p.lastFetchLine = si.line
			if !p.icache.Access(int64(r.PC)*8, false) {
				p.icacheStallUntil = p.cycle + int64(p.cfg.ICacheMissPenalty)
				return // line arrives after the penalty; retry then
			}
		}
		p.pendHead++

		fl := si.flags
		if fl&fIsStore != 0 {
			p.sq[p.sqTail&robMask] = p.tail
			p.sqTail++
		}
		if fl&fCondBranch != 0 && !p.bpred.PredictAndUpdate(int(r.PC), r.Taken) {
			fl |= fMisp
		}
		// Fields set later (dep at dispatch, consNext when linked, issueAt
		// at issue) are not cleared here.
		abs := p.tail
		e := &p.rob[abs&robMask]
		e.flags, e.sub, e.op, e.pending = fl, si.sub, si.op, 0
		e.consHead, e.readyAt, e.doneAt, e.memAddr = -1, 0, never, r.MemAddr
		e.pc, e.dst, e.src1, e.src2 = r.PC, si.dst, si.src1, si.src2
		e.faultKind, e.lat, e.fetchAt = faultinject.KindNone, si.lat, p.cycle
		p.tail++
		if fl&fMisp != 0 {
			p.fetchBlockedOn = abs
			p.fetchBlockedSub, p.fetchBlockedPC = e.sub, int(r.PC)
			return
		}
	}
}
