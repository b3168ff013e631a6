package uarch

import (
	"fmt"

	"fpint/internal/faultinject"
	"fpint/internal/isa"
	"fpint/internal/obs"
)

// StallCause classifies why a cycle issued no instructions. Every
// non-issuing cycle is attributed to exactly one cause (and one subsystem),
// so the per-cause cycle counts plus IssueActiveCycles sum to Cycles — the
// top-down accounting §7.2–§7.4 reason about in prose.
type StallCause uint8

// Stall causes, in classification priority order.
const (
	// StallRAWWait: the oldest issuable instruction waits on a register
	// value (an unfinished producer, or execution latency draining at the
	// commit head).
	StallRAWWait StallCause = iota
	// StallDCache: the blocking producer is a load that missed the D-cache.
	StallDCache
	// StallBpredRecovery: fetch is squashed behind an unresolved
	// mispredicted branch and the windows have run dry.
	StallBpredRecovery
	// StallICache: fetch is waiting on an instruction-cache miss.
	StallICache
	// StallROBFull: dispatch is blocked because MaxInFlight is reached.
	StallROBFull
	// StallIntWindowFull: dispatch is blocked on a full INT issue window.
	StallIntWindowFull
	// StallFpWindowFull: dispatch is blocked on a full FP issue window.
	StallFpWindowFull
	// StallPhysRegs: dispatch is blocked because no physical register of
	// the destination class is free.
	StallPhysRegs
	// StallFrontend: pipeline fill/drain and fetch/decode latency — no
	// instruction was available to issue for any other reason.
	StallFrontend
	// StallFaultRecovery: the machine is recovering from a detected
	// transient fault — refilling the front end after a parity-triggered
	// flush, replaying the faulted instruction, or waiting on a
	// fault-delayed writeback. Nonzero only under fault injection.
	StallFaultRecovery

	// NumStallCauses is the number of stall causes.
	NumStallCauses = int(StallFaultRecovery) + 1
)

var stallNames = [NumStallCauses]string{
	"raw-wait", "dcache", "bpred-recovery", "icache",
	"rob-full", "int-window-full", "fp-window-full", "phys-regs", "frontend",
	"fault-recovery",
}

// String names the stall cause.
func (c StallCause) String() string {
	if int(c) < len(stallNames) {
		return stallNames[c]
	}
	return fmt.Sprintf("cause-%d", int(c))
}

// accountIssue records the issue-slot utilization of the cycle and, when
// nothing issued, attributes the cycle to a stall cause.
func (p *pipeline) accountIssue(issued int) {
	if issued >= len(p.stats.IssueSlotCycles) {
		issued = len(p.stats.IssueSlotCycles) - 1
	}
	p.stats.IssueSlotCycles[issued]++
	if issued > 0 {
		p.stats.IssueActiveCycles++
		if p.profile != nil {
			p.profile.chargeActive(p.issuedOldestPC, p.issuedOldestSub)
		}
		return
	}
	cause, sub, pc := p.classifyStall()
	p.stats.StallBySub[sub][cause]++
	if p.profile != nil {
		p.profile.chargeStall(pc, cause, sub)
	}
}

// classifyStall decides, for a cycle in which nothing issued, which single
// condition to blame and which subsystem it belongs to. It runs after the
// issue stage and before dispatch/fetch, so it inspects exactly the state
// the issue stage saw. Blame rules, checked in order:
//
//  1. A dispatched-but-unissued instruction existed → it waits on a
//     producer: D-cache miss if the producer is an outstanding missing
//     load, RAW wait otherwise. Charged to the waiting instruction's
//     subsystem.
//  2. Fetch is squashed behind a mispredicted branch → bpred recovery,
//     charged to the branch's subsystem.
//  3. Fetch is waiting on an I-cache miss → icache (charged to INT, whose
//     core owns the front end).
//  4. Dispatch is blocked → ROB full, INT/FP window full, or physical
//     registers exhausted, charged to the instruction stuck at dispatch.
//  5. The commit head has issued but not finished → execution latency:
//     D-cache miss if it is a missing load, RAW wait otherwise.
//  6. Anything else is front-end fill/drain latency.
//
// The third result is the PC of the blamed instruction, for per-PC cycle
// attribution: the stalled consumer (rule 1), the mispredicted branch
// (rule 2), the instruction whose fetch missed the I-cache (rule 3), the
// dispatch-stuck instruction (rule 4), or the draining commit head (rule
// 5). Fill/drain cycles (rule 6) have no responsible instruction and
// return UnknownPC.
func (p *pipeline) classifyStall() (StallCause, isa.Subsystem, int) {
	// 0. Fault recovery: the front end is squashed behind a parity flush,
	// waiting for the faulted instruction to finish replaying. Charged to
	// the faulted instruction.
	if p.recoverBlockedOn >= p.head {
		e := &p.rob[p.recoverBlockedOn&robMask]
		if e.flags&fIssued != 0 && e.doneAt > p.cycle {
			return StallFaultRecovery, e.sub, int(e.pc)
		}
	}
	// 1. Oldest dispatched-but-unissued instruction the issue stage saw.
	// The window counts are exactly the dispatched, unissued entries.
	if p.intWinCount+p.fpWinCount > 0 {
		p.unissued = max(p.unissued, p.head)
		for p.rob[p.unissued&robMask].flags&fIssued != 0 {
			p.unissued++
		}
		e := &p.rob[p.unissued&robMask]
		sub, pc := e.sub, int(e.pc)
		for _, d := range e.dep {
			if d < p.head { // no producer, or it has committed
				continue
			}
			pr := &p.rob[d&robMask]
			if pr.doneAt > p.cycle { // unissued (never) or still executing
				if pr.flags&fIssued != 0 && pr.faultKind != faultinject.KindNone {
					// Producer is replaying a faulted result (or its
					// writeback was fault-delayed).
					return StallFaultRecovery, sub, pc
				}
				if pr.flags&(fIssued|fIsLoad|fDmiss) == fIssued|fIsLoad|fDmiss {
					return StallDCache, sub, pc
				}
				return StallRAWWait, sub, pc
			}
		}
		// Ready but not issued: with zero instructions issued this cycle
		// no structural resource was taken, so the only remaining blocker
		// is a load waiting for an older store's address — a memory RAW.
		return StallRAWWait, sub, pc
	}
	// 2. Misprediction recovery, charged to the branch even when it has
	// already committed this cycle.
	if p.fetchBlockedOn >= 0 {
		return StallBpredRecovery, p.fetchBlockedSub, p.fetchBlockedPC
	}
	// 3. I-cache miss in flight.
	if p.icacheStallUntil > p.cycle {
		pc := UnknownPC
		if p.pendHead < len(p.pending) {
			pc = int(p.pending[p.pendHead].PC) // the fetch that missed
		}
		return StallICache, isa.SubINT, pc
	}
	// 4. Dispatch blocked on a structural limit.
	if p.dispatch < p.tail {
		e := &p.rob[p.dispatch&robMask]
		if e.fetchAt < p.cycle {
			sub, pc := e.sub, int(e.pc)
			dst := e.dst
			intSide := sub == isa.SubINT || e.flags&fIsMem != 0
			switch {
			case p.inFlight >= p.cfg.MaxInFlight:
				return StallROBFull, sub, pc
			case intSide && p.intWinCount >= p.cfg.IntWindow:
				return StallIntWindowFull, sub, pc
			case !intSide && p.fpWinCount >= p.cfg.FpWindow:
				return StallFpWindowFull, sub, pc
			case dst >= 0 && dst < 32 && p.intDefs >= p.cfg.IntPhysRegs-32:
				return StallPhysRegs, sub, pc
			case dst >= 32 && p.fpDefs >= p.cfg.FpPhysRegs-32:
				return StallPhysRegs, sub, pc
			}
		}
	}
	// 5. Execution latency draining at the commit head.
	if p.head < p.tail {
		e := &p.rob[p.head&robMask]
		if e.flags&fIssued != 0 && e.doneAt > p.cycle {
			sub, pc := e.sub, int(e.pc)
			if e.faultKind != faultinject.KindNone {
				return StallFaultRecovery, sub, pc
			}
			if e.flags&(fIsLoad|fDmiss) == fIsLoad|fDmiss {
				return StallDCache, sub, pc
			}
			return StallRAWWait, sub, pc
		}
	}
	// 6. Pipeline fill/drain.
	return StallFrontend, isa.SubINT, UnknownPC
}

// sampleOccupancy records the end-of-cycle occupancy of the issue windows
// and the in-flight (ROB) count.
func (p *pipeline) sampleOccupancy() {
	clamp := func(n, hi int) int {
		if n < 0 {
			return 0
		}
		if n > hi {
			return hi
		}
		return n
	}
	p.stats.IntWinOcc[clamp(p.intWinCount, len(p.stats.IntWinOcc)-1)]++
	p.stats.FpWinOcc[clamp(p.fpWinCount, len(p.stats.FpWinOcc)-1)]++
	p.stats.ROBOcc[clamp(p.inFlight, len(p.stats.ROBOcc)-1)]++
	p.occIntSum += int64(p.intWinCount)
	p.occFpSum += int64(p.fpWinCount)
	p.occROBSum += int64(p.inFlight)
}

// StallCauseCycles returns the total cycles attributed to cause across all
// subsystems.
func (s *Stats) StallCauseCycles(c StallCause) int64 {
	var n int64
	for sub := 0; sub < 3; sub++ {
		n += s.StallBySub[sub][c]
	}
	return n
}

// TotalStallCycles returns the cycles attributed to any stall cause.
func (s *Stats) TotalStallCycles() int64 {
	var n int64
	for c := 0; c < NumStallCauses; c++ {
		n += s.StallCauseCycles(StallCause(c))
	}
	return n
}

// StallAccountingError returns Cycles − (IssueActiveCycles + stalls); a
// correctly accounted run returns 0.
func (s *Stats) StallAccountingError() int64 {
	return s.Cycles - s.IssueActiveCycles - s.TotalStallCycles()
}

// AddTo exports the statistics into a metrics registry under the given
// prefix (e.g. "uarch."): plain counters for totals, per-subsystem
// per-cause stall counters, gauges for rates, and histograms for the
// occupancy and issue-utilization profiles.
func (s *Stats) AddTo(r *obs.Registry, prefix string) {
	c := func(name string, v int64) { r.Counter(prefix + name).Add(v) }
	g := func(name string, v float64) { r.Gauge(prefix + name).Set(v) }
	c(obs.MetricCycles, s.Cycles)
	c(obs.MetricInstructions, s.Instructions)
	c(obs.MetricLoads, s.Loads)
	c(obs.MetricStores, s.Stores)
	c("issued.INT", s.IssuedINT)
	c("issued.FP", s.IssuedFP)
	c("issued.FPa", s.IssuedFPa)
	c("int_idle_fpa_busy_cycles", s.IntIdleFPaBusy)
	c("fetch_mispredict_stalls", s.FetchMispredictStalls)
	c("fetch_icache_stalls", s.FetchICacheStalls)
	if s.FaultsInjected > 0 {
		c("faults.injected", s.FaultsInjected)
		c("faults.recovery_cycles", s.FaultRecoveryCycles)
		c("faults.fetch_stalls", s.FetchFaultStalls)
	}
	c("bpred.lookups", s.BpredLookups)
	c("bpred.mispredicts", s.BpredMispredicts)
	c(obs.MetricIssueActiveCycles, s.IssueActiveCycles)
	for sub := 0; sub < 3; sub++ {
		for cause := 0; cause < NumStallCauses; cause++ {
			if s.StallBySub[sub][cause] == 0 {
				continue
			}
			c(fmt.Sprintf("stall.%s.%s", isa.Subsystem(sub), StallCause(cause)), s.StallBySub[sub][cause])
		}
	}
	g("ipc", s.IPC())
	g("icache_miss_rate", s.ICacheMissRate)
	g("dcache_miss_rate", s.DCacheMissRate)

	hist := func(name string, counts []int64) {
		bounds := make([]float64, len(counts))
		for i := range bounds {
			bounds[i] = float64(i)
		}
		h := r.Histogram(prefix+name, bounds)
		for i, n := range counts {
			h.ObserveN(float64(i), n)
		}
	}
	hist("occupancy.int_window", s.IntWinOcc)
	hist("occupancy.fp_window", s.FpWinOcc)
	hist("occupancy.rob", s.ROBOcc)
	hist("issue_slots", s.IssueSlotCycles)
}
