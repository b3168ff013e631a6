package uarch

import "fpint/internal/isa"

// UnknownPC is the pseudo-PC that absorbs cycles no instruction is
// responsible for (pipeline fill/drain while the machine is empty). Keeping
// these cycles in the profile — instead of dropping them — is what makes the
// per-PC attribution closed: Σ per-PC cycles == Stats.Cycles exactly.
const UnknownPC = -1

// PCSample accumulates the cycles and retirements charged to one PC.
type PCSample struct {
	// Cycles is the total cycles charged to this PC (active + all stalls).
	Cycles int64
	// Active counts cycles in which this PC was the oldest instruction
	// issued (retirement-ordered attribution of useful work).
	Active int64
	// Stall[cause] counts non-issuing cycles blamed on this PC, split by
	// stall cause (same causes as Stats.StallBySub).
	Stall [NumStallCauses]int64
	// BySub splits the charged cycles by the subsystem of the instruction
	// at fault (INT / FP / FPa). For UnknownPC everything lands on INT,
	// whose core owns the front end.
	BySub [3]int64
	// Retired counts dynamic instructions retired at this PC.
	Retired int64
}

// CycleProfile attributes every simulated cycle to the PC responsible for
// it. Arm one with Machine.SetProfiling and read it back with
// Machine.Profile.
//
// Charging rules, applied once per cycle:
//   - A cycle in which at least one instruction issued is charged to the
//     oldest instruction that issued that cycle (the one retirement is
//     waiting on).
//   - A stall cycle is charged to the instruction classifyStall blames:
//     the dependence-stalled consumer, the mispredicted branch, the
//     instruction stuck at dispatch, or the latency-draining commit head.
//     An I-cache-miss cycle is charged to the instruction whose fetch
//     missed.
//   - Fill/drain cycles with no responsible instruction go to UnknownPC.
//
// Exactly one PC is charged per cycle, so the per-PC cycle counts form a
// closed ledger over Stats.Cycles, mirroring the aggregate stall-ledger
// invariant (StallAccountingError == 0) at per-PC granularity.
type CycleProfile struct {
	// Samples maps PC (or UnknownPC) to its accumulated sample.
	Samples map[int]*PCSample
	// Cycles is the total number of cycles charged.
	Cycles int64
}

// NewCycleProfile returns an empty profile.
func NewCycleProfile() *CycleProfile {
	return &CycleProfile{Samples: make(map[int]*PCSample)}
}

func (cp *CycleProfile) sample(pc int) *PCSample {
	s := cp.Samples[pc]
	if s == nil {
		s = &PCSample{}
		cp.Samples[pc] = s
	}
	return s
}

// chargeActive charges one issue-active cycle to pc.
func (cp *CycleProfile) chargeActive(pc int, sub isa.Subsystem) {
	s := cp.sample(pc)
	s.Cycles++
	s.Active++
	s.BySub[sub]++
	cp.Cycles++
}

// chargeStall charges one stall cycle of the given cause to pc.
func (cp *CycleProfile) chargeStall(pc int, cause StallCause, sub isa.Subsystem) {
	s := cp.sample(pc)
	s.Cycles++
	s.Stall[cause]++
	s.BySub[sub]++
	cp.Cycles++
}

// retire records one instruction retiring at pc.
func (cp *CycleProfile) retire(pc int) {
	cp.sample(pc).Retired++
}

// TotalAttributed returns Σ per-PC cycles; equal to Cycles by construction
// and to Stats.Cycles after Finish when the profile was attached up front.
func (cp *CycleProfile) TotalAttributed() int64 {
	var n int64
	for _, s := range cp.Samples {
		n += s.Cycles
	}
	return n
}
