// Package profile turns the timing simulator's per-PC cycle attribution
// into source-level reports: hot-function and hot-line tables, folded
// stacks for flamegraph tooling, pprof-compatible protobuf output, and an
// annotated-source listing.
//
// It joins two artifacts the lower layers maintain independently: the debug
// line table the compiler threads into every isa.Inst (function, source
// line, originating IR op, partition), and the closed per-PC cycle ledger
// the uarch pipeline records (Σ per-PC cycles == total cycles). The join
// preserves closure: every cycle lands in exactly one line-level bucket,
// including the fill/drain pseudo-entry, so per-line tables always sum to
// the simulator's cycle count.
package profile

import (
	"sort"

	"fpint/internal/isa"
	"fpint/internal/uarch"
)

// FillDrainFunc is the pseudo-function that absorbs cycles no instruction
// is responsible for (pipeline fill/drain with an empty machine).
const FillDrainFunc = "<machine>"

// Key identifies one source line within a function. Line 0 groups
// compiler-synthesized instructions with no recorded source line.
type Key struct {
	Func string
	Line int
}

// LineSample aggregates everything charged to one source line.
type LineSample struct {
	Func string
	Line int

	// Cycles is the total cycles charged to the line; Active the subset in
	// which the line's instruction was the oldest to issue.
	Cycles int64
	Active int64
	// Stall splits the line's non-issuing cycles by cause (same causes as
	// uarch.Stats.StallBySub).
	Stall [uarch.NumStallCauses]int64
	// BySub splits the charged cycles by subsystem (INT/FP/FPa) of the
	// instruction at fault.
	BySub [3]int64

	// Retired counts dynamic instructions retired for this line;
	// RetiredFPa the subset executed in the augmented FP subsystem,
	// RetiredCopies the CP2FP/CP2INT transfers, and RetiredDups the §7.2
	// duplicated instructions — the per-site overhead the paper's
	// Profit = Benefit − Overhead reasoning is about.
	Retired       int64
	RetiredFPa    int64
	RetiredCopies int64
	RetiredDups   int64

	// StaticInsts counts machine instructions compiled from this line.
	StaticInsts int
}

// OffloadFraction returns the fraction of the line's retired instructions
// executed in the FPa subsystem (the paper's per-site offload measure).
func (s *LineSample) OffloadFraction() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.RetiredFPa) / float64(s.Retired)
}

// FuncSample aggregates a whole function.
type FuncSample struct {
	Name string

	Cycles        int64
	Active        int64
	Stall         [uarch.NumStallCauses]int64
	BySub         [3]int64
	Retired       int64
	RetiredFPa    int64
	RetiredCopies int64
	RetiredDups   int64
	StaticInsts   int
	Lines         int // distinct source lines with any attribution
}

// OffloadFraction returns the fraction of the function's retired
// instructions executed in the FPa subsystem.
func (f *FuncSample) OffloadFraction() float64 {
	if f.Retired == 0 {
		return 0
	}
	return float64(f.RetiredFPa) / float64(f.Retired)
}

// Profile is a source-attributed cycle profile of one simulation.
type Profile struct {
	Lines map[Key]*LineSample
	Funcs map[string]*FuncSample

	// TotalCycles is the simulator's cycle count; by construction it
	// equals the sum of Cycles over Lines (and over Funcs).
	TotalCycles int64
	// Instructions is the total retired instruction count.
	Instructions int64
	// FillDrain is the cycle count of the FillDrainFunc pseudo-entry.
	FillDrain int64
}

// Build joins the program's debug line table with the pipeline's per-PC
// cycle ledger. Lines that compiled to instructions but received no cycles
// still appear (with zero counts) so annotated listings cover cold code.
func Build(prog *isa.Program, cp *uarch.CycleProfile) *Profile {
	p := &Profile{
		Lines: make(map[Key]*LineSample),
		Funcs: make(map[string]*FuncSample),
	}
	line := func(k Key) *LineSample {
		s := p.Lines[k]
		if s == nil {
			s = &LineSample{Func: k.Func, Line: k.Line}
			p.Lines[k] = s
		}
		return s
	}
	keyOf := func(pc int) Key {
		if pc < 0 || pc >= len(prog.Insts) {
			return Key{Func: FillDrainFunc}
		}
		fn := ""
		if pc < len(prog.FuncOf) {
			fn = prog.FuncOf[pc]
		}
		return Key{Func: fn, Line: int(prog.Insts[pc].SrcLine)}
	}

	// Static shape: every compiled instruction registers its line.
	for pc := range prog.Insts {
		line(keyOf(pc)).StaticInsts++
	}

	// Dynamic attribution.
	for pc, ps := range cp.Samples {
		k := keyOf(pc)
		s := line(k)
		s.Cycles += ps.Cycles
		s.Active += ps.Active
		for c, n := range ps.Stall {
			s.Stall[c] += n
		}
		for sub, n := range ps.BySub {
			s.BySub[sub] += n
		}
		s.Retired += ps.Retired
		p.TotalCycles += ps.Cycles
		p.Instructions += ps.Retired
		if k.Func == FillDrainFunc {
			p.FillDrain += ps.Cycles
		}
		if pc >= 0 && pc < len(prog.Insts) {
			in := prog.Insts[pc]
			if isa.ExecSubsystem(in.Op) == isa.SubFPa {
				s.RetiredFPa += ps.Retired
			}
			if in.Op == isa.CP2FP || in.Op == isa.CP2INT {
				s.RetiredCopies += ps.Retired
			}
			if in.IsDup {
				s.RetiredDups += ps.Retired
			}
		}
	}

	// Function roll-up.
	for _, s := range p.Lines {
		f := p.Funcs[s.Func]
		if f == nil {
			f = &FuncSample{Name: s.Func}
			p.Funcs[s.Func] = f
		}
		f.Cycles += s.Cycles
		f.Active += s.Active
		for c, n := range s.Stall {
			f.Stall[c] += n
		}
		for sub, n := range s.BySub {
			f.BySub[sub] += n
		}
		f.Retired += s.Retired
		f.RetiredFPa += s.RetiredFPa
		f.RetiredCopies += s.RetiredCopies
		f.RetiredDups += s.RetiredDups
		f.StaticInsts += s.StaticInsts
		f.Lines++
	}
	return p
}

// HotLines returns the line samples ordered by descending cycles (ties
// broken by function name, then line) — a deterministic hot-line ranking.
func (p *Profile) HotLines() []*LineSample {
	out := make([]*LineSample, 0, len(p.Lines))
	for _, s := range p.Lines {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// HotFuncs returns the function samples ordered by descending cycles (ties
// broken by name).
func (p *Profile) HotFuncs() []*FuncSample {
	out := make([]*FuncSample, 0, len(p.Funcs))
	for _, f := range p.Funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}
