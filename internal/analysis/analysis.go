package analysis

import (
	"fmt"

	"fpint/internal/dataflow"
	"fpint/internal/ir"
)

// FuncFacts bundles every per-function analysis result and implements the
// partitioner's address oracle (core.AddrOracle): SafeAddr justifies
// unpinning the address half of a load/store whose address is a provably
// in-bounds access to a known base object.
type FuncFacts struct {
	Fn      *ir.Func
	CFG     *CFG
	Ranges  *Ranges
	Aliases *Aliases

	// safe[instrID] is the unpin justification for a load/store whose
	// address is proven safe; absence means the address stays pinned.
	safe map[int]string
}

// Facts holds the analysis results of a whole module.
type Facts struct {
	Funcs map[string]*FuncFacts
}

// AnalyzeModule runs every analysis over every function of mod.
func AnalyzeModule(mod *ir.Module) *Facts {
	f := &Facts{Funcs: make(map[string]*FuncFacts, len(mod.Funcs))}
	for _, fn := range mod.Funcs {
		f.Funcs[fn.Name] = AnalyzeFunc(fn, mod)
	}
	return f
}

// AnalyzeFunc runs CFG construction, the value-range analysis, the alias
// analysis, and the safe-address proof over one function. It only reads
// fn, whose instructions must be numbered as Func.Verify checks, so the
// facts and an RDG of fn share instruction IDs.
func AnalyzeFunc(fn *ir.Func, mod *ir.Module) *FuncFacts {
	cfg := BuildCFG(fn)
	rd := dataflow.ComputeReachingDefs(fn)
	ranges := AnalyzeRanges(fn, cfg)
	aliases := AnalyzeAliases(fn, rd, ranges)
	ff := &FuncFacts{Fn: fn, CFG: cfg, Ranges: ranges, Aliases: aliases, safe: make(map[int]string)}
	ff.proveSafeAddrs(mod)
	return ff
}

// objectBytes returns the byte size of a base object, when known.
func objectBytes(base Base, fn *ir.Func, mod *ir.Module) (int64, bool) {
	switch base.Kind {
	case BaseGlobal:
		for _, g := range mod.Globals {
			if g.Name == base.Sym {
				return g.Words * 8, true
			}
		}
	case BaseLocal:
		if base.Slot >= 0 && base.Slot < int64(len(fn.LocalSlots)) {
			return fn.LocalSlots[base.Slot] * 8, true
		}
	}
	return 0, false
}

// proveSafeAddrs derives the unpin justifications: a load/store address is
// safe when it decomposes to a known base object with a byte-offset
// interval provably within [0, size-8] — a well-behaved array access with
// no aliasing hazard outside its own object and a value the FPa integer
// datapath handles exactly. Such an address may be computed in the FPa
// subsystem and materialized into the integer file without changing what
// the access reads or writes.
func (ff *FuncFacts) proveSafeAddrs(mod *ir.Module) {
	for id, loc := range ff.Aliases.Locs {
		if loc.Base.Kind == BaseUnknown {
			continue
		}
		size, ok := objectBytes(loc.Base, ff.Fn, mod)
		if !ok || size < 8 {
			continue
		}
		off := loc.Off
		if off.IsBot() || !off.Finite() || off.Lo < 0 || off.Hi > size-8 {
			continue
		}
		ff.safe[id] = fmt.Sprintf("%s+[%d..%d] within %d-byte object", loc.Base, off.Lo, off.Hi, size)
	}
}

// SafeAddr implements core.AddrOracle: it returns the deterministic
// justification for unpinning the address half of load/store instrID, or
// ok=false when the address must stay pinned.
func (ff *FuncFacts) SafeAddr(instrID int) (string, bool) {
	reason, ok := ff.safe[instrID]
	return reason, ok
}

// ParseOnOff parses the shared analysis on|off value of the -analysis CLI
// flag and the fpintd request field.
func ParseOnOff(v string) (bool, error) {
	switch v {
	case "on":
		return true, nil
	case "off":
		return false, nil
	}
	return false, fmt.Errorf("unknown analysis mode %q (want on or off)", v)
}
