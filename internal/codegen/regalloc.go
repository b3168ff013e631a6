package codegen

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"fpint/internal/dataflow"
	"fpint/internal/isa"
)

// Register pools per class. Argument/return registers (A0–A3, V0, F0,
// F12–F15) and scratch registers are excluded so short physical live ranges
// around calls never conflict with allocations.
var (
	intCallerSaved = []int{8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 3, 28, 30}
	intCalleeSaved = []int{16, 17, 18, 19, 20, 21, 22, 23}
	fpCallerSaved  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 24, 25, 26, 27, 28, 29}
	fpCalleeSaved  = []int{16, 17, 18, 19, 20, 21, 22, 23}
)

// Spill scratch registers per class.
const (
	intScratch1 = isa.RegAT // spilled rs
	intScratch2 = isa.RegK0 // spilled rt
	intScratchD = isa.RegK1 // spilled rd
	fpScratch1  = isa.FRegS0
	fpScratch2  = isa.FRegS1
)

// interval is a live interval of one virtual register in linear position
// space.
type interval struct {
	vreg       int // register number minus firstVirtual
	start, end int
	uses       int // static def/use occurrences (spill-cost proxy)
	crossCall  bool
	reg        int // assigned physical register, or -1 when spilled
}

// allocResult is the outcome of allocation for one register class. Its
// tables are indexed by virtual register number minus firstVirtual.
type allocResult struct {
	assign     []int   // physical register, or -1
	spillSlot  []int   // spill slot index (within class-shared space), or -1
	remat      []int   // index into consts of the template re-materialized at each use, or -1
	consts     []minst // constant-materializing templates (rematCandidates)
	usedCallee []int
}

// regalloc allocates both register files of f and rewrites its blocks,
// returning the number of spill slots consumed and the callee-saved
// registers used. Spill slots are shared across classes (each slot is one
// 8-byte word).
type regallocStats struct {
	SpillSlots    int
	SpillLoads    int // static count of inserted reload instructions
	SpillStores   int
	UsedCalleeInt []int
	UsedCalleeFp  []int
}

func regalloc(f *mfunc) regallocStats {
	nextSlot := 0
	stats := regallocStats{}
	succs := blockSuccs(f)
	blockStart := make([]int, len(f.blocks)+1)
	for _, class := range []isa.RegClass{isa.IntReg, isa.FpReg} {
		// Linear positions: instruction ii of block bi sits at
		// blockStart[bi]+ii, and the block's last position is
		// blockStart[bi+1]-1. Recomputed per class because the previous
		// class's spill rewrite may have inserted instructions.
		var callPositions []int
		pos := 0
		for bi, b := range f.blocks {
			blockStart[bi] = pos
			for ii := range b.insts {
				if b.insts[ii].op == isa.JAL {
					callPositions = append(callPositions, pos+ii)
				}
			}
			pos += max(len(b.insts), 1) // a phantom position gives empty blocks a span
		}
		blockStart[len(f.blocks)] = pos
		res := allocateClass(f, class, succs, blockStart, callPositions, &nextSlot)
		if class == isa.IntReg {
			stats.UsedCalleeInt = res.usedCallee
		} else {
			stats.UsedCalleeFp = res.usedCallee
		}
		l, s := rewrite(f, class, res)
		stats.SpillLoads += l
		stats.SpillStores += s
	}
	stats.SpillSlots = nextSlot
	f.spillWords = int64(nextSlot)
	return stats
}

// blockSuccs maps each block's successor IDs to indices into f.blocks.
// Successors are IR blocks, so the epilogue (a negative ID) is never one.
func blockSuccs(f *mfunc) [][]int {
	maxID := -1
	for _, b := range f.blocks {
		maxID = max(maxID, b.id)
	}
	index := make([]int, maxID+1) // block ID -> index into f.blocks
	for bi, b := range f.blocks {
		if b.id >= 0 {
			index[b.id] = bi
		}
	}
	succs := make([][]int, len(f.blocks))
	for bi, b := range f.blocks {
		succs[bi] = make([]int, len(b.succs))
		for si, id := range b.succs {
			succs[bi][si] = index[id]
		}
	}
	return succs
}

// operandRef is one virtual-register operand field of an instruction.
type operandRef struct {
	val   *int
	isDef bool
}

// virtOperands returns the virtual-register operands of m in the wanted
// class, uses (rs, rt) before the def (rd), in ops[:n].
func virtOperands(m *minst, class isa.RegClass) (ops [3]operandRef, n int) {
	rdC, rsC, rtC := regClasses(m.op)
	dDef, sUse, tUse := defsUses(m.op)
	if sUse && rsC == class && m.rs >= firstVirtual {
		ops[n] = operandRef{&m.rs, false}
		n++
	}
	if tUse && rtC == class && m.rt >= firstVirtual {
		ops[n] = operandRef{&m.rt, false}
		n++
	}
	if dDef && rdC == class && m.rd >= firstVirtual {
		ops[n] = operandRef{&m.rd, true}
		n++
	}
	return ops, n
}

// rematCandidates finds virtual registers of the class whose single
// definition materializes a constant (LI/LIA/LID): spilling them needs no
// stack slot — the constant is re-materialized at each use, as production
// register allocators do. tmpl[v-firstVirtual] indexes v's definition in
// consts, or is -1 when v is not a candidate.
func rematCandidates(f *mfunc, class isa.RegClass) (tmpl []int, consts []minst) {
	nv := f.nextVirt[class] - firstVirtual
	defs := make([]int, nv)
	tmpl = make([]int, nv)
	for v := range tmpl {
		tmpl[v] = -1
	}
	for _, b := range f.blocks {
		for ii := range b.insts {
			m := &b.insts[ii]
			ops, n := virtOperands(m, class)
			for _, op := range ops[:n] {
				if !op.isDef {
					continue
				}
				v := *op.val - firstVirtual
				defs[v]++
				switch m.op {
				case isa.LI, isa.LIA, isa.LID:
					tmpl[v] = len(consts)
					consts = append(consts, *m)
				}
			}
		}
	}
	for v, d := range defs {
		if d != 1 {
			tmpl[v] = -1
		}
	}
	return tmpl, consts
}

func allocateClass(f *mfunc, class isa.RegClass, succs [][]int, blockStart, callPositions []int,
	nextSlot *int) allocResult {

	nv := f.nextVirt[class] - firstVirtual
	tmpl, consts := rematCandidates(f, class)

	// One pass over the instructions collects each block's use/def sets
	// and each register's first and last position and occurrence count.
	use := dataflow.NewBitSets(len(f.blocks), nv)
	def := dataflow.NewBitSets(len(f.blocks), nv)
	starts := make([]int, nv)
	ends := make([]int, nv)
	uses := make([]int, nv)
	for v := range starts {
		starts[v], ends[v] = math.MaxInt, -1
	}
	touch := func(v, p int) {
		starts[v] = min(starts[v], p)
		ends[v] = max(ends[v], p)
	}
	for bi, b := range f.blocks {
		for ii := range b.insts {
			ops, n := virtOperands(&b.insts[ii], class)
			for _, op := range ops[:n] {
				v := *op.val - firstVirtual
				if op.isDef {
					def[bi].Set(v)
				} else if !def[bi].Has(v) {
					use[bi].Set(v)
				}
				touch(v, blockStart[bi]+ii)
				uses[v]++
			}
		}
	}
	liveIn, liveOut := dataflow.SolveLiveness(succs, use, def)
	for bi := range f.blocks {
		first, last := blockStart[bi], blockStart[bi+1]-1
		liveIn[bi].ForEach(func(v int) { touch(v, first) })
		liveOut[bi].ForEach(func(v int) { touch(v, last) })
	}

	// Intervals, sorted by (start, vreg).
	var ivs []interval
	for v, e := range ends {
		if e < 0 {
			continue
		}
		iv := interval{vreg: v, start: starts[v], end: e, uses: uses[v], reg: -1}
		// The first call after the start must come before the end.
		i := sort.SearchInts(callPositions, iv.start+1)
		iv.crossCall = i < len(callPositions) && callPositions[i] < iv.end
		ivs = append(ivs, iv)
	}
	slices.SortFunc(ivs, func(a, b interval) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.vreg, b.vreg)
	})

	caller, callee := intCallerSaved, intCalleeSaved
	if class == isa.FpReg {
		caller, callee = fpCallerSaved, fpCalleeSaved
	}
	var isCallee, free, usedCallee [32]bool
	for _, r := range callee {
		isCallee[r] = true
		free[r] = true
	}
	for _, r := range caller {
		free[r] = true
	}
	var active []*interval
	res := allocResult{
		assign:    make([]int, nv),
		spillSlot: make([]int, nv),
		remat:     make([]int, nv),
		consts:    consts,
	}
	for v := range res.assign {
		res.assign[v], res.spillSlot[v], res.remat[v] = -1, -1, -1
	}

	expire := func(pos int) {
		kept := active[:0]
		for _, a := range active {
			if a.end < pos {
				free[a.reg] = true
			} else {
				kept = append(kept, a)
			}
		}
		active = kept
	}
	pick := func(iv *interval) int {
		if iv.crossCall {
			for _, r := range callee {
				if free[r] {
					return r
				}
			}
			return -1
		}
		for _, r := range caller {
			if free[r] {
				return r
			}
		}
		for _, r := range callee {
			if free[r] {
				return r
			}
		}
		return -1
	}
	spill := func(iv *interval) {
		if t := tmpl[iv.vreg]; t >= 0 {
			res.remat[iv.vreg] = t
			return
		}
		res.spillSlot[iv.vreg] = *nextSlot
		*nextSlot++
	}
	for i := range ivs {
		iv := &ivs[i]
		expire(iv.start)
		r := pick(iv)
		if r < 0 {
			// Pick a spill victim by lowest static use count (a cheap
			// spill-cost proxy: loop-carried values accumulate uses and are
			// kept in registers), breaking ties toward the furthest end.
			// Candidates are active intervals whose register this interval
			// could legally use.
			var victim *interval
			better := func(a, b *interval) bool { // is a a better victim than b?
				if b == nil {
					return true
				}
				// Rematerializable intervals spill for free (no memory
				// traffic), so they are always preferred victims.
				aRemat, bRemat := tmpl[a.vreg] >= 0, tmpl[b.vreg] >= 0
				if aRemat != bRemat {
					return aRemat
				}
				if a.uses != b.uses {
					return a.uses < b.uses
				}
				return a.end > b.end
			}
			for _, a := range active {
				if iv.crossCall && !isCallee[a.reg] {
					continue
				}
				if better(a, victim) {
					victim = a
				}
			}
			if victim != nil && better(victim, iv) {
				r = victim.reg
				victim.reg = -1
				res.assign[victim.vreg] = -1
				spill(victim)
				kept := active[:0]
				for _, a := range active {
					if a != victim {
						kept = append(kept, a)
					}
				}
				active = kept
			} else {
				spill(iv)
				continue
			}
		}
		iv.reg = r
		free[r] = false
		if isCallee[r] {
			usedCallee[r] = true
		}
		res.assign[iv.vreg] = r
		active = append(active, iv)
	}
	for r, used := range usedCallee {
		if used {
			res.usedCallee = append(res.usedCallee, r)
		}
	}
	return res
}

// rewrite applies an allocation to the function: virtual registers become
// physical, spilled values go through frame slots via scratch registers.
// Spill slots live right above the local-array area: offset
// (localWords + slot) * 8 from SP.
func rewrite(f *mfunc, class isa.RegClass, res allocResult) (loads, stores int) {
	s1, s2 := intScratch1, intScratch2
	sd := intScratchD
	loadOp, storeOp := isa.LW, isa.SW
	if class == isa.FpReg {
		s1, s2, sd = fpScratch1, fpScratch2, fpScratch1
		loadOp, storeOp = isa.LD, isa.SD
	}
	slotOff := func(slot int) int64 { return (f.localWords + int64(slot)) * 8 }

	for _, b := range f.blocks {
		// Operands are rewritten in place; out stays nil until the block
		// needs an inserted or dropped instruction.
		var out []minst
		for i := range b.insts {
			m := &b.insts[i]
			ops, n := virtOperands(m, class)
			// Uses first. A register read by both operands is loaded once.
			loadedV, loadedSc := -1, 0
			nextScratch := s1
			for _, op := range ops[:n] {
				if op.isDef {
					continue
				}
				v := *op.val - firstVirtual
				if r := res.assign[v]; r >= 0 {
					*op.val = r
					continue
				}
				if v == loadedV {
					*op.val = loadedSc
					continue
				}
				if t := res.remat[v]; t >= 0 {
					sc := nextScratch
					nextScratch = s2
					c := res.consts[t]
					c.rd = sc
					out = append(spliced(out, b.insts, i), c)
					loadedV, loadedSc = v, sc
					*op.val = sc
					continue
				}
				slot := res.spillSlot[v]
				if slot < 0 {
					continue
				}
				sc := nextScratch
				nextScratch = s2
				out = append(spliced(out, b.insts, i), minst{op: loadOp, rd: sc, rs: isa.RegSP, rt: noReg, imm: slotOff(slot), target: -1, line: m.line, irop: m.irop})
				loads++
				loadedV, loadedSc = v, sc
				*op.val = sc
			}
			var defStore *minst
			dropInst := false
			for _, op := range ops[:n] {
				if !op.isDef {
					continue
				}
				v := *op.val - firstVirtual
				if r := res.assign[v]; r >= 0 {
					*op.val = r
					continue
				}
				if res.remat[v] >= 0 {
					// The single definition of a rematerialized constant is
					// dead: every use re-materializes it in place.
					dropInst = true
					continue
				}
				slot := res.spillSlot[v]
				if slot < 0 {
					continue
				}
				*op.val = sd
				defStore = &minst{op: storeOp, rd: noReg, rs: sd, rt: isa.RegSP, imm: slotOff(slot), target: -1, line: m.line, irop: m.irop}
			}
			if dropInst {
				out = spliced(out, b.insts, i)
				continue
			}
			if out != nil {
				out = append(out, *m)
			}
			if defStore != nil {
				out = append(spliced(out, b.insts, i+1), *defStore)
				stores++
			}
		}
		if out != nil {
			b.insts = out
		}
	}
	return loads, stores
}

// spliced returns out, or, while a block has needed no inserted or dropped
// instruction, a fresh slice holding its first i (rewritten) instructions
// with room for a few insertions.
func spliced(out, insts []minst, i int) []minst {
	if out != nil {
		return out
	}
	return append(make([]minst, 0, len(insts)+4), insts[:i]...)
}
