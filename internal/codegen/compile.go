package codegen

import (
	"fmt"
	"math"
	"strings"
	"time"

	"fpint/internal/analysis"
	"fpint/internal/core"
	"fpint/internal/fperr"
	"fpint/internal/interp"
	"fpint/internal/ir"
	"fpint/internal/isa"
	"fpint/internal/obs"
)

// Scheme selects the partitioning scheme applied during compilation.
type Scheme int

// Schemes.
const (
	SchemeNone     Scheme = iota // conventional compilation (baseline)
	SchemeBasic                  // §5 basic partitioning
	SchemeAdvanced               // §6 advanced partitioning
	SchemeBalanced               // §6.6 extension: advanced + load-balance cap
	SchemeOptimal                // exact branch-and-bound partition oracle
)

// schemeNames is the one input-name table for Scheme, indexed by Scheme.
var schemeNames = [...]string{
	SchemeNone:     "none",
	SchemeBasic:    "basic",
	SchemeAdvanced: "advanced",
	SchemeBalanced: "balanced",
	SchemeOptimal:  "optimal",
}

// SchemeNames lists the names ParseScheme accepts, indexed by Scheme.
func SchemeNames() []string { return append([]string(nil), schemeNames[:]...) }

// ParseScheme resolves a scheme name from a flag or request; an unknown
// name is a usage error. The input spelling of SchemeNone is "none", while
// String keeps "conventional" as its output spelling.
func ParseScheme(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if n == name {
			return Scheme(s), nil
		}
	}
	return 0, fperr.New(fperr.ClassUsage, "unknown scheme %q (want %s)", name, strings.Join(schemeNames[:], ", "))
}

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeBasic:
		return "basic"
	case SchemeAdvanced:
		return "advanced"
	case SchemeBalanced:
		return "balanced"
	case SchemeOptimal:
		return "optimal"
	}
	return "conventional"
}

// Options configures compilation.
type Options struct {
	Scheme  Scheme
	Cost    core.CostParams
	Profile *interp.Profile // may be nil (probabilistic estimates are used)

	// MaxFPaFraction caps the FPa partition's estimated dynamic weight for
	// SchemeBalanced (default 0.5 when unset).
	MaxFPaFraction float64

	// Analysis enables the static-analysis sharpened partitioning: the
	// alias and value-range analyses run before graph construction and
	// their address oracle unpins load/store address nodes proven to be
	// in-bounds accesses to known objects, letting whole address-compute
	// slices become offload candidates. Every unpin is recorded in the
	// partition audit trail and re-checked by the partition verifier.
	Analysis bool

	// InterprocFPArgs enables the §6.6 interprocedural extension: integer
	// arguments whose producers are FPa-resident at every call site of a
	// callee that wants them in FPa are passed in FP registers, collapsing
	// the caller's FPa→INT copy and the callee's INT→FPa copy into one
	// FP-file move.
	InterprocFPArgs bool

	// PassLog, when non-nil, receives one record per backend stage
	// (partition, select, regalloc) per function, with wall time and the
	// machine-instruction counts produced.
	PassLog *obs.PassLog

	// Frontend bounds the frontend's self-profile interpreter run (see
	// FrontendBudget). The zero value keeps the interpreter defaults; a
	// service compiling untrusted source sets a step budget and a
	// cancellation hook so an adversarial program cannot pin a worker in
	// the profile stage.
	Frontend FrontendBudget

	// PartitionHook, when non-nil, runs after each function's partition
	// has been computed and verified and may mutate it in place. It
	// exists for the differential-testing subsystem to inject known-bad
	// partitions (fault injection, bypassing the verifier); production
	// callers leave it nil.
	PartitionHook func(fn string, part *core.Partition)

	// Oracle bounds SchemeOptimal's exact search per function (zero values
	// select core.DefaultOracleLimits). Components that exceed the limits
	// fall back to the greedy assignment and are reported degraded in
	// Result.Oracle.
	Oracle core.OracleLimits
}

// FuncStat records per-function compilation statistics.
type FuncStat struct {
	StaticInsts int
	SpillSlots  int
	SpillLoads  int
	SpillStores int
}

// Result is a compiled program plus metadata.
type Result struct {
	Prog       *isa.Program
	Partitions map[string]*core.Partition // nil entries under SchemeNone
	Stats      map[string]*FuncStat

	// Fallback is set by CompileWithFallback when the requested scheme
	// failed and a simpler rung of the degradation ladder produced this
	// result; nil for a direct compile.
	Fallback *Fallback

	// Oracle holds the per-function greedy-vs-optimal gap reports when the
	// compile ran SchemeOptimal; nil otherwise.
	Oracle map[string]*core.OracleReport
}

// Compile lowers an optimized IR module to an executable program, applying
// the selected partitioning scheme per function. Every partition must pass
// core.VerifyPartition before PartitionHook sees it; a violation is an
// error. Compile only reads mod, so concurrent compiles may share it.
func Compile(mod *ir.Module, opts Options) (*Result, error) {
	res := &Result{
		Partitions: make(map[string]*core.Partition),
		Stats:      make(map[string]*FuncStat),
	}
	prog := &isa.Program{
		FuncEntry:  make(map[string]int),
		GlobalAddr: make(map[string]int64),
		DataWords:  make(map[int64]uint64),
	}
	res.Prog = prog

	// Data segment layout (byte address 0 is kept unused, matching the IR
	// interpreter so functional results can be cross-checked).
	addr := int64(8)
	for _, g := range mod.Globals {
		prog.GlobalAddr[g.Name] = addr
		for i, v := range g.InitInt {
			prog.DataWords[addr+int64(i)*8] = uint64(v)
		}
		for i, v := range g.InitFlt {
			prog.DataWords[addr+int64(i)*8] = math.Float64bits(v)
		}
		addr += g.Words * 8
	}

	// Start stub.
	prog.Insts = append(prog.Insts,
		isa.Inst{Op: isa.JAL, Sym: "main"},
		isa.Inst{Op: isa.HALT},
	)
	prog.FuncOf = append(prog.FuncOf, "_start", "_start")

	type patch struct {
		idx int
		sym string
	}
	callPatches := []patch{{idx: 0, sym: "main"}}

	// Phase 1: partition every function (the interprocedural argument plan
	// needs all partitions before any code is selected).
	var facts *analysis.Facts
	if opts.Analysis && opts.Scheme != SchemeNone {
		facts = analysis.AnalyzeModule(mod)
	}
	graphs := make(map[string]*core.Graph)
	for _, fn := range mod.Funcs {
		var part *core.Partition
		if opts.Scheme != SchemeNone {
			partStart := time.Now()
			var oracle core.AddrOracle
			if facts != nil {
				if ff := facts.Funcs[fn.Name]; ff != nil {
					oracle = ff
				}
			}
			g := core.BuildGraphWithOracle(fn, opts.Profile, oracle)
			graphs[fn.Name] = g
			switch opts.Scheme {
			case SchemeBasic:
				part = core.BasicPartition(g)
			case SchemeAdvanced:
				part = core.AdvancedPartition(g, opts.Cost)
			case SchemeBalanced:
				frac := opts.MaxFPaFraction
				if frac == 0 {
					frac = 0.5
				}
				part = core.BalancedPartition(g, opts.Cost, frac)
			case SchemeOptimal:
				var rep *core.OracleReport
				part, rep = core.OptimalPartition(g, opts.Cost, opts.Oracle)
				if res.Oracle == nil {
					res.Oracle = make(map[string]*core.OracleReport)
				}
				res.Oracle[fn.Name] = rep
			}
			if err := core.VerifyPartition(part); err != nil {
				return nil, fmt.Errorf("codegen: %w", err)
			}
			if opts.PartitionHook != nil {
				opts.PartitionHook(fn.Name, part)
			}
			opts.PassLog.Add("partition", fn.Name, time.Since(partStart).Nanoseconds(),
				len(g.Nodes), len(g.Nodes))
		}
		res.Partitions[fn.Name] = part
	}

	var plan *FPArgPlan
	if opts.InterprocFPArgs && opts.Scheme != SchemeNone && opts.Scheme != SchemeBasic {
		plan = planFPArgs(mod, graphs, res.Partitions)
	}

	// Phase 2: select, allocate, and lower each function.
	for _, fn := range mod.Funcs {
		part := res.Partitions[fn.Name]

		selStart := time.Now()
		mf, err := selectFunc(fn, part, plan)
		if err != nil {
			return nil, err
		}
		opts.PassLog.Add("select", fn.Name, time.Since(selStart).Nanoseconds(),
			countFuncInstrs(fn), countMInstrs(mf))

		raStart := time.Now()
		ra := regalloc(mf)
		addFrame(mf, ra)
		opts.PassLog.Add("regalloc", fn.Name, time.Since(raStart).Nanoseconds(), 0, countMInstrs(mf))

		// Lower to flat instructions with block layout and fallthrough
		// elision.
		base := len(prog.Insts)
		prog.FuncEntry[fn.Name] = base
		blockIdx := make(map[int]int) // block id -> instruction index
		// First pass: compute start offsets assuming no elision; second
		// pass emits with elision of jumps to the immediately next block.
		var lowered []isa.Inst
		pending := 0
		startOf := make(map[int]int)
		for bi, b := range mf.blocks {
			startOf[b.id] = pending
			for ii := range b.insts {
				m := &b.insts[ii]
				if m.op == isa.J && m.target != -1 && bi+1 < len(mf.blocks) && mf.blocks[bi+1].id == m.target && ii == len(b.insts)-1 {
					continue // fallthrough
				}
				pending++
			}
		}
		for bi, b := range mf.blocks {
			blockIdx[b.id] = base + startOf[b.id]
			for ii := range b.insts {
				m := &b.insts[ii]
				if m.op == isa.J && m.target != -1 && bi+1 < len(mf.blocks) && mf.blocks[bi+1].id == m.target && ii == len(b.insts)-1 {
					continue
				}
				li, err := lowerInst(m)
				if err != nil {
					return nil, fmt.Errorf("codegen: %s: %v", fn.Name, err)
				}
				if m.op == isa.JAL {
					callPatches = append(callPatches, patch{idx: len(prog.Insts) + len(lowered), sym: m.sym})
				}
				if m.sym != "" && (m.op == isa.LI || m.op == isa.LIA) {
					ga, ok := prog.GlobalAddr[m.sym]
					if !ok {
						return nil, fmt.Errorf("codegen: %s: unknown global %q", fn.Name, m.sym)
					}
					li.Imm += ga
					li.Sym = m.sym
				}
				lowered = append(lowered, li)
			}
		}
		// Resolve intra-function branch targets.
		for i := range lowered {
			in := &lowered[i]
			if isa.IsCondBranch(in.Op) || (in.Op == isa.J && in.Sym == "") {
				tgt, ok := blockIdx[in.Target]
				if !ok {
					return nil, fmt.Errorf("codegen: %s: unresolved branch target %d", fn.Name, in.Target)
				}
				in.Target = tgt
			}
		}
		prog.Insts = append(prog.Insts, lowered...)
		for range lowered {
			prog.FuncOf = append(prog.FuncOf, fn.Name)
		}
		res.Stats[fn.Name] = &FuncStat{
			StaticInsts: len(lowered),
			SpillSlots:  ra.SpillSlots,
			SpillLoads:  ra.SpillLoads,
			SpillStores: ra.SpillStores,
		}
	}

	// Link calls.
	for _, p := range callPatches {
		entry, ok := prog.FuncEntry[p.sym]
		if !ok {
			return nil, fmt.Errorf("codegen: call to undefined function %q", p.sym)
		}
		prog.Insts[p.idx].Target = entry
	}
	return res, nil
}

// lowerInst converts an allocated machine instruction to the packed ISA
// form. Register fields must be physical by now.
func lowerInst(m *minst) (isa.Inst, error) {
	check := func(r int) (uint8, error) {
		if r == noReg {
			return 0, nil
		}
		if r < 0 || r >= 32 {
			return 0, fmt.Errorf("unallocated register %d in %v", r, *m)
		}
		return uint8(r), nil
	}
	rd, err := check(m.rd)
	if err != nil {
		return isa.Inst{}, err
	}
	rs, err := check(m.rs)
	if err != nil {
		return isa.Inst{}, err
	}
	rt, err := check(m.rt)
	if err != nil {
		return isa.Inst{}, err
	}
	return isa.Inst{
		Op: m.op, Rd: rd, Rs: rs, Rt: rt,
		Imm: m.imm, FImm: m.fimm, Target: m.target, Sym: m.sym,
		IsDup: m.isDup, UseImm: m.useImm,
		SrcLine: int32(m.line), IROp: m.irop,
	}, nil
}

// addFrame synthesizes the prologue and epilogue:
//
//	frame: [local arrays][spill slots][RA][saved callee regs]
//
// SP is lowered by the frame size on entry and restored on exit. RA is
// always saved (simplicity over leaf-function optimization; identical for
// baseline and partitioned code).
func addFrame(f *mfunc, ra regallocStats) {
	savedBase := (f.localWords + f.spillWords) * 8
	nSaves := int64(1 + len(ra.UsedCalleeInt) + len(ra.UsedCalleeFp))
	frame := savedBase + nSaves*8
	if frame%16 != 0 {
		frame += 16 - frame%16
	}

	var pro []minst
	pro = append(pro,
		minst{op: isa.LI, rd: isa.RegK0, rs: noReg, rt: noReg, imm: frame, target: -1},
		minst{op: isa.SUB, rd: isa.RegSP, rs: isa.RegSP, rt: isa.RegK0, target: -1},
		minst{op: isa.SW, rd: noReg, rs: isa.RegRA, rt: isa.RegSP, imm: savedBase, target: -1},
	)
	off := savedBase + 8
	for _, r := range ra.UsedCalleeInt {
		pro = append(pro, minst{op: isa.SW, rd: noReg, rs: r, rt: isa.RegSP, imm: off, target: -1})
		off += 8
	}
	for _, r := range ra.UsedCalleeFp {
		pro = append(pro, minst{op: isa.SD, rd: noReg, rs: r, rt: isa.RegSP, imm: off, target: -1})
		off += 8
	}
	for i := range pro {
		pro[i].line = f.line
	}
	entry := f.blocks[0]
	entry.insts = append(pro, entry.insts...)

	// Epilogue: restore in reverse, bump SP, return (the JR is already the
	// last instruction of the epilogue block).
	var epi []minst
	epi = append(epi, minst{op: isa.LW, rd: isa.RegRA, rs: isa.RegSP, rt: noReg, imm: savedBase, target: -1})
	off = savedBase + 8
	for _, r := range ra.UsedCalleeInt {
		epi = append(epi, minst{op: isa.LW, rd: r, rs: isa.RegSP, rt: noReg, imm: off, target: -1})
		off += 8
	}
	for _, r := range ra.UsedCalleeFp {
		epi = append(epi, minst{op: isa.LD, rd: r, rs: isa.RegSP, rt: noReg, imm: off, target: -1})
		off += 8
	}
	epi = append(epi,
		minst{op: isa.LI, rd: isa.RegK0, rs: noReg, rt: noReg, imm: frame, target: -1},
		minst{op: isa.ADD, rd: isa.RegSP, rs: isa.RegSP, rt: isa.RegK0, target: -1},
	)
	for i := range epi {
		epi[i].line = f.line
	}
	epiBlk := f.blocks[len(f.blocks)-1]
	epiBlk.insts = append(epi, epiBlk.insts...)
}

// countFuncInstrs counts a function's IR instructions.
func countFuncInstrs(fn *ir.Func) int {
	n := 0
	for _, b := range fn.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// countMInstrs counts a machine function's instructions across blocks.
func countMInstrs(mf *mfunc) int {
	n := 0
	for _, b := range mf.blocks {
		n += len(b.insts)
	}
	return n
}

// CompileSource is a convenience used by tests, tools, and examples: it
// runs the full pipeline (parse → check → lower → optimize → profile →
// partition → codegen) on mini-C source text.
func CompileSource(src string, opts Options) (*Result, *ir.Module, error) {
	mod, prof, err := FrontendPipeline(src)
	if err != nil {
		return nil, nil, err
	}
	if opts.Profile == nil {
		opts.Profile = prof
	}
	r, err := Compile(mod, opts)
	return r, mod, err
}
