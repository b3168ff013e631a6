// Package uarch implements the cycle-level out-of-order timing model of the
// paper's evaluation (Table 1): a fetch unit with a McFarling-style gshare
// predictor and an instruction cache, decode/rename, split INT/FP issue
// windows, per-subsystem functional units, a load/store port with
// store-address disambiguation, a data cache, and in-order commit. The
// conventional and augmented (FPa) microarchitectures are identical except
// for the instructions the compiled binary routes to the FP subsystem.
package uarch

// GsharePredictor is McFarling's gshare: the branch PC is XORed with a
// global history register to index a table of 2-bit saturating counters
// (Table 1: 32K 2-bit counters, 15-bit global history). Unconditional
// control transfers are predicted perfectly, per the paper.
type GsharePredictor struct {
	counters    []uint8
	history     uint64
	historyBits uint
	mask        uint64

	Lookups     int64
	Mispredicts int64
}

// NewGshare builds a predictor with nCounters 2-bit counters (power of two)
// and historyBits of global history.
func NewGshare(nCounters int, historyBits uint) *GsharePredictor {
	return &GsharePredictor{
		counters:    make([]uint8, nCounters),
		historyBits: historyBits,
		mask:        uint64(nCounters - 1),
	}
}

// Reset clears the counters, history, and statistics, keeping the table.
func (p *GsharePredictor) Reset() {
	clear(p.counters)
	p.history = 0
	p.Lookups, p.Mispredicts = 0, 0
}

func (p *GsharePredictor) index(pc int) uint64 {
	return (uint64(pc) ^ p.history) & p.mask
}

// PredictAndUpdate predicts the branch at pc, then trains on the actual
// outcome, returning whether the prediction was correct.
func (p *GsharePredictor) PredictAndUpdate(pc int, taken bool) bool {
	idx := p.index(pc)
	pred := p.counters[idx] >= 2
	if taken {
		if p.counters[idx] < 3 {
			p.counters[idx]++
		}
	} else {
		if p.counters[idx] > 0 {
			p.counters[idx]--
		}
	}
	p.history = ((p.history << 1) | b2u(taken)) & ((1 << p.historyBits) - 1)
	p.Lookups++
	if pred != taken {
		p.Mispredicts++
		return false
	}
	return true
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
