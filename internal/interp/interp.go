// Package interp implements an IR-level interpreter. It serves two roles:
//
//  1. Functional reference: compiled programs must produce the same output
//     as the interpreter (used heavily in tests).
//  2. Profiler: it records basic-block execution counts, which feed the
//     advanced partitioning scheme's cost model exactly as the paper's
//     "basic-block execution profiles" do.
package interp

import (
	"encoding/binary"
	"fmt"
	"strings"

	"fpint/internal/ir"
	"fpint/internal/trap"
)

// Profile holds basic-block execution counts per function.
type Profile struct {
	// Counts[funcName][blockID] = times the block executed.
	Counts map[string]map[int]int64
}

// BlockCount returns the recorded count for a block (0 when absent).
func (p *Profile) BlockCount(fn string, blockID int) int64 {
	if p == nil || p.Counts == nil {
		return 0
	}
	return p.Counts[fn][blockID]
}

// Covered reports whether the function appears in the profile at all.
func (p *Profile) Covered(fn string) bool {
	if p == nil || p.Counts == nil {
		return false
	}
	m, ok := p.Counts[fn]
	return ok && len(m) > 0
}

// Result summarizes an interpreter run.
type Result struct {
	Ret     int64  // value returned by main
	Output  string // text produced by print/printf_
	Steps   int64  // dynamic IR instructions executed
	Loads   int64
	Stores  int64
	Profile *Profile
}

// value is a dynamic operand value; ints and floats are stored separately.
type value struct {
	i int64
	f float64
}

// Machine is the interpreter state.
type Machine struct {
	mod *ir.Module

	// mem holds the low end of the arena: it starts at the globals' extent
	// and grows when a store lands past its end. A byte past len(mem) has
	// never been written and reads as 0.
	mem        []byte
	globalAddr map[string]int64
	heapTop    int64 // next free byte after globals; used for frame slots

	out     strings.Builder
	steps   int64
	loads   int64
	stores  int64
	maxStep int64

	// Cooperative cancellation (see SetRunHook): hookLeft counts down to
	// the next check.
	hook      func(steps int64) error
	hookEvery int64
	hookLeft  int64

	profile *Profile
	// counts holds each called function's block entry counts by Block.ID;
	// Run folds the nonzero ones into profile.
	counts map[*ir.Func][]int64
}

// wordBytes is the size of every scalar value.
const wordBytes = 8

// memSize is the flat memory arena size (16 MiB), ample for all workloads:
// an access outside [0, memSize-wordBytes] traps.
const memSize = 16 << 20

// minGrowth is the smallest arena a store past the end grows to.
const minGrowth = 4 << 10

// New creates a machine for mod with globals laid out and initialized.
func New(mod *ir.Module) *Machine {
	m := &Machine{
		mod:        mod,
		globalAddr: make(map[string]int64),
		maxStep:    2_000_000_000,
		profile:    &Profile{Counts: make(map[string]map[int]int64)},
		counts:     make(map[*ir.Func][]int64),
	}
	addr := int64(wordBytes) // keep address 0 unused
	for _, g := range mod.Globals {
		m.globalAddr[g.Name] = addr
		addr += g.Words * wordBytes
	}
	m.heapTop = addr
	m.mem = make([]byte, min(addr, memSize))
	for _, g := range mod.Globals {
		base := m.globalAddr[g.Name]
		for i, v := range g.InitInt {
			m.storeInt(base+int64(i)*wordBytes, v)
		}
		for i, v := range g.InitFlt {
			m.storeFloat(base+int64(i)*wordBytes, v)
		}
	}
	return m
}

// SetStepLimit bounds the number of dynamic IR instructions (default 2e9).
func (m *Machine) SetStepLimit(n int64) { m.maxStep = n }

// DefaultHookInterval is the step cadence used by SetRunHook when the
// caller passes every <= 0.
const DefaultHookInterval = 1024

// SetRunHook installs a cooperative cancellation check: hook is called
// every `every` dynamic IR instructions (DefaultHookInterval when every
// <= 0) with the current step count, and a non-nil return aborts the run
// with that error — conventionally a trap.KindCancelled trap, so daemon
// deadlines and the step-limit watchdog share one abort mechanism. A nil
// hook clears it.
func (m *Machine) SetRunHook(hook func(steps int64) error, every int64) {
	if every <= 0 {
		every = DefaultHookInterval
	}
	m.hook = hook
	m.hookEvery = every
	m.hookLeft = every
}

// storeInt writes a little-endian word, growing the arena to hold it.
// addr must be in [0, memSize-wordBytes].
func (m *Machine) storeInt(addr int64, v int64) {
	if addr+wordBytes > int64(len(m.mem)) {
		m.grow(addr + wordBytes)
	}
	binary.LittleEndian.PutUint64(m.mem[addr:], uint64(v))
}

// loadInt reads a little-endian word; bytes past the arena's end read 0.
// addr must be in [0, memSize-wordBytes].
func (m *Machine) loadInt(addr int64) int64 {
	if addr+wordBytes <= int64(len(m.mem)) {
		return int64(binary.LittleEndian.Uint64(m.mem[addr:]))
	}
	var w [wordBytes]byte
	if addr < int64(len(m.mem)) {
		copy(w[:], m.mem[addr:])
	}
	return int64(binary.LittleEndian.Uint64(w[:]))
}

// grow extends the arena to at least n bytes, doubling its length and
// capping it at memSize. The new bytes are zero, as never-written memory
// reads.
func (m *Machine) grow(n int64) {
	size := max(int64(len(m.mem)), minGrowth)
	for size < n {
		size *= 2
	}
	mem := make([]byte, min(size, memSize))
	copy(mem, m.mem)
	m.mem = mem
}

func (m *Machine) storeFloat(addr int64, v float64) {
	m.storeInt(addr, int64(f2b(v)))
}

func (m *Machine) loadFloat(addr int64) float64 {
	return b2f(uint64(m.loadInt(addr)))
}

// Run executes main and returns the result.
func (m *Machine) Run() (*Result, error) {
	mainFn := m.mod.Lookup("main")
	if mainFn == nil {
		return nil, fmt.Errorf("interp: no main function")
	}
	ret, err := m.callFunc(mainFn, nil)
	if err != nil {
		return nil, err
	}
	for fn, counts := range m.counts {
		c := m.profile.Counts[fn.Name]
		if c == nil {
			c = make(map[int]int64)
			m.profile.Counts[fn.Name] = c
		}
		for id, n := range counts {
			if n != 0 {
				c[id] = n
			}
		}
	}
	return &Result{
		Ret:     ret.i,
		Output:  m.out.String(),
		Steps:   m.steps,
		Loads:   m.loads,
		Stores:  m.stores,
		Profile: m.profile,
	}, nil
}

func (m *Machine) callFunc(fn *ir.Func, args []value) (value, error) {
	if len(args) != len(fn.Params) {
		return value{}, fmt.Errorf("interp: %s: got %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	regs := make([]value, fn.NumVRegs())
	for i, p := range fn.Params {
		regs[p] = args[i]
	}
	// Allocate frame-local slots.
	slotAddrs := make([]int64, len(fn.LocalSlots))
	frameBase := m.heapTop
	for i, words := range fn.LocalSlots {
		slotAddrs[i] = m.heapTop
		m.heapTop += words * wordBytes
	}
	defer func() { m.heapTop = frameBase }()

	counts := m.counts[fn]
	if counts == nil {
		counts = make([]int64, fn.NumBlockIDs())
		m.counts[fn] = counts
	}

	blk := fn.Entry
	for {
		counts[blk.ID]++
		for _, in := range blk.Instrs {
			m.steps++
			if m.steps > m.maxStep {
				return value{}, trap.New(trap.KindStepLimit, "interp", "step limit exceeded in %s", fn.Name)
			}
			if m.hook != nil {
				m.hookLeft--
				if m.hookLeft <= 0 {
					m.hookLeft = m.hookEvery
					if err := m.hook(m.steps); err != nil {
						return value{}, err
					}
				}
			}
			switch in.Op {
			case ir.OpNop:
			case ir.OpConst:
				if in.IsFloat {
					regs[in.Dst] = value{f: in.FImm}
				} else {
					regs[in.Dst] = value{i: in.Imm}
				}
			case ir.OpCopy:
				regs[in.Dst] = regs[in.Args[0]]
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
				ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNor,
				ir.OpShl, ir.OpShrA, ir.OpShrL,
				ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE,
				ir.OpCmpGT, ir.OpCmpGE:
				a := regs[in.Args[0]].i
				var b int64
				if in.ImmArg {
					b = in.Imm
				} else {
					b = regs[in.Args[1]].i
				}
				v, ok := ir.EvalInt(in.Op, a, b)
				if !ok {
					msg := "division by zero"
					if in.Op == ir.OpRem {
						msg = "remainder by zero"
					}
					return value{}, fmt.Errorf("interp: %w in %s", trap.New(trap.KindDivideByZero, "interp", msg), fn.Name)
				}
				regs[in.Dst] = value{i: v}
			case ir.OpFAdd:
				regs[in.Dst] = value{f: regs[in.Args[0]].f + regs[in.Args[1]].f}
			case ir.OpFSub:
				regs[in.Dst] = value{f: regs[in.Args[0]].f - regs[in.Args[1]].f}
			case ir.OpFMul:
				regs[in.Dst] = value{f: regs[in.Args[0]].f * regs[in.Args[1]].f}
			case ir.OpFDiv:
				regs[in.Dst] = value{f: regs[in.Args[0]].f / regs[in.Args[1]].f}
			case ir.OpFNeg:
				regs[in.Dst] = value{f: -regs[in.Args[0]].f}
			case ir.OpFCmpEQ:
				regs[in.Dst] = value{i: b2i(regs[in.Args[0]].f == regs[in.Args[1]].f)}
			case ir.OpFCmpNE:
				regs[in.Dst] = value{i: b2i(regs[in.Args[0]].f != regs[in.Args[1]].f)}
			case ir.OpFCmpLT:
				regs[in.Dst] = value{i: b2i(regs[in.Args[0]].f < regs[in.Args[1]].f)}
			case ir.OpFCmpLE:
				regs[in.Dst] = value{i: b2i(regs[in.Args[0]].f <= regs[in.Args[1]].f)}
			case ir.OpFCmpGT:
				regs[in.Dst] = value{i: b2i(regs[in.Args[0]].f > regs[in.Args[1]].f)}
			case ir.OpFCmpGE:
				regs[in.Dst] = value{i: b2i(regs[in.Args[0]].f >= regs[in.Args[1]].f)}
			case ir.OpCvtIF:
				regs[in.Dst] = value{f: float64(regs[in.Args[0]].i)}
			case ir.OpCvtFI:
				regs[in.Dst] = value{i: int64(regs[in.Args[0]].f)}
			case ir.OpLoad:
				addr := regs[in.Args[0]].i + in.Imm
				if addr < 0 || addr > memSize-wordBytes {
					return value{}, trap.New(trap.KindOutOfBounds, "interp", "load out of range at %#x in %s", addr, fn.Name)
				}
				m.loads++
				if in.IsFloat {
					regs[in.Dst] = value{f: m.loadFloat(addr)}
				} else {
					regs[in.Dst] = value{i: m.loadInt(addr)}
				}
			case ir.OpStore:
				addr := regs[in.Args[1]].i + in.Imm
				if addr < 0 || addr > memSize-wordBytes {
					return value{}, trap.New(trap.KindOutOfBounds, "interp", "store out of range at %#x in %s", addr, fn.Name)
				}
				m.stores++
				if in.IsFloat {
					m.storeFloat(addr, regs[in.Args[0]].f)
				} else {
					m.storeInt(addr, regs[in.Args[0]].i)
				}
			case ir.OpAddrGlobal:
				base, ok := m.globalAddr[in.Sym]
				if !ok {
					return value{}, fmt.Errorf("interp: unknown global %q", in.Sym)
				}
				regs[in.Dst] = value{i: base + in.Imm}
			case ir.OpAddrLocal:
				regs[in.Dst] = value{i: slotAddrs[in.Imm]}
			case ir.OpCall:
				res, err := m.call(in, regs)
				if err != nil {
					return value{}, err
				}
				if in.Dst != 0 {
					regs[in.Dst] = res
				}
			case ir.OpBr:
				if regs[in.Args[0]].i != 0 {
					blk = blk.Succs[0]
				} else {
					blk = blk.Succs[1]
				}
			case ir.OpJmp:
				blk = blk.Succs[0]
			case ir.OpRet:
				if len(in.Args) > 0 {
					return regs[in.Args[0]], nil
				}
				return value{}, nil
			default:
				return value{}, fmt.Errorf("interp: unknown op %s", in.Op)
			}
			if in.Op == ir.OpBr || in.Op == ir.OpJmp {
				break
			}
		}
	}
}

func (m *Machine) call(in *ir.Instr, regs []value) (value, error) {
	switch in.Sym {
	case "print":
		fmt.Fprintf(&m.out, "%d\n", regs[in.Args[0]].i)
		return value{}, nil
	case "printf_":
		fmt.Fprintf(&m.out, "%.6g\n", regs[in.Args[0]].f)
		return value{}, nil
	}
	callee := m.mod.Lookup(in.Sym)
	if callee == nil {
		return value{}, fmt.Errorf("interp: call to unknown function %q", in.Sym)
	}
	args := make([]value, len(in.Args))
	for i, a := range in.Args {
		args[i] = regs[a]
	}
	return m.callFunc(callee, args)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func f2b(f float64) uint64 {
	return floatBits(f)
}

func b2f(b uint64) float64 {
	return floatFromBits(b)
}
