// Package sim implements the ISA-level functional simulator. It executes
// assembled programs, collects dynamic instruction statistics per subsystem
// (the data behind Figure 8 and the §7.2 overhead numbers), and hands the
// dynamic instruction sequence to the timing model in batches of slim
// records (Machine.Step) — the classic SimpleScalar-style functional-first
// organization. A record carries only what varies between executions of
// one static instruction; the timing model decodes the rest once per PC.
//
// Guest memory is a 16 MiB address space held in 4 KiB pages: a page
// exists only once the current run stores into it, and a never-written
// byte reads 0, so a machine costs what its program writes.
package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"fpint/internal/isa"
	"fpint/internal/trap"
)

// MemSize is the size of the guest address space (16 MiB): data segment at
// the bottom, stack at the top growing down. An access outside
// [0, MemSize-8] traps.
const MemSize = 16 << 20

// Record describes one committed dynamic instruction for the timing model:
// its PC, the effective address of a load or store, and the outcome of a
// conditional branch. Everything else about the instruction is fixed per
// PC and read from the program.
type Record struct {
	PC      int32
	Taken   bool  // conditional branch outcome
	MemAddr int64 // effective address for loads/stores, 0 otherwise
}

// Stats aggregates a run.
type Stats struct {
	Total    int64 // dynamic instructions (HALT excluded)
	BySubsys [3]int64
	Loads    int64
	Stores   int64
	Branches int64 // conditional branches
	Copies   int64 // CP2FP + CP2INT executed
	Dups     int64 // duplicated instructions executed
	ByOp     map[isa.Opcode]int64
}

// OffloadFraction returns the fraction of dynamic instructions executed by
// the augmented FP subsystem (Figure 8's metric).
func (s *Stats) OffloadFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.BySubsys[isa.SubFPa]) / float64(s.Total)
}

// Result of a functional run.
type Result struct {
	Ret    int64 // value returned by main (register V0 at HALT)
	Output string
	Stats  Stats
}

// The address space is held in 4 KiB pages (see Machine.pages).
const (
	pageShift = 12 // 4 KiB pages
	pageSize  = 1 << pageShift
	numPages  = MemSize >> pageShift
)

type page [pageSize]byte

// Machine is the functional simulator state. A machine is reusable: build
// one with NewMachine, then Reset it onto successive programs. The page
// table, the pages a run wrote, the output buffer, statistics map and
// Result are recycled, so a warm machine runs without heap traffic once it
// holds as many pages as its largest run wrote.
type Machine struct {
	prog *isa.Program

	R  [32]int64  // integer registers
	F  [32]uint64 // FP registers (raw 64-bit patterns)
	PC int

	// pages maps each page of the address space, nil until the run stores
	// into it. written lists the mapped page numbers in mapping order, and
	// pool[i] backs written[i]: pool holds every page the machine owns, and
	// its tail past len(written) is the free list of zeroed pages.
	pages   [numPages]*page
	written []int32
	pool    []*page
	out     []byte

	// byOp counts executed opcodes during a run, indexed by opcode; Step
	// copies the nonzero entries into Stats.ByOp at HALT, keeping the map
	// out of the per-instruction path.
	byOp [256]int64

	steps    int64 // dynamic instructions started this run
	maxSteps int64

	// Cooperative cancellation (see SetRunHook). Reset preserves the hook;
	// hookLeft is the per-run countdown to the next check.
	hook      func(steps int64) error
	hookEvery int64
	hookLeft  int64

	// res is the machine-owned Result returned at HALT; it is overwritten
	// by the next Reset/Run of this machine.
	res *Result

	// runBuf receives the records Run steps through and discards.
	runBuf [256]Record
}

// DefaultHookInterval is the step cadence used by SetRunHook when the
// caller passes every <= 0: frequent enough that a deadline abort lands
// within microseconds of host time, rare enough to be invisible in the
// steady-state dispatch cost.
const DefaultHookInterval = 1024

// NewMachine builds an unbound machine. Call Reset to load a program.
func NewMachine() *Machine {
	return &Machine{
		res:      &Result{Stats: Stats{ByOp: make(map[isa.Opcode]int64)}},
		maxSteps: 4_000_000_000,
	}
}

// New builds a machine with the program's data segment initialized.
func New(prog *isa.Program) *Machine {
	m := NewMachine()
	m.Reset(prog)
	return m
}

// Reset rebinds the machine to prog and restores the power-on state: the
// pages the previous run wrote are zeroed and unmapped, returning to the
// free list, registers and statistics cleared, the data segment
// re-initialized, and the step limit restored to its default. The run hook
// is preserved. The Result returned by a previous run (including its
// Stats.ByOp map and Output) is invalidated.
func (m *Machine) Reset(prog *isa.Program) {
	for i, n := range m.written {
		clear(m.pool[i][:])
		m.pages[n] = nil
	}
	m.written = m.written[:0]
	m.prog = prog
	m.R = [32]int64{}
	m.F = [32]uint64{}
	m.PC = 0
	m.out = m.out[:0]
	m.steps = 0
	m.maxSteps = 4_000_000_000
	m.hookLeft = m.hookEvery
	m.byOp = [256]int64{}
	byOp := m.res.Stats.ByOp
	clear(byOp)
	*m.res = Result{Stats: Stats{ByOp: byOp}}
	for addr, w := range prog.DataWords {
		m.storeWord(addr, w)
	}
	m.R[isa.RegSP] = MemSize - 64
}

// SetStepLimit bounds the dynamic instruction count.
func (m *Machine) SetStepLimit(n int64) { m.maxSteps = n }

// SetRunHook installs a cooperative cancellation check: hook is called
// every `every` dynamic instructions (DefaultHookInterval when every <= 0)
// with the current step count, and a non-nil return aborts the run with
// that error — conventionally a trap.KindCancelled trap, so deadline aborts
// travel the same structured-trap path as the step-limit watchdog. The hook
// is preserved across Reset; a nil hook clears it. The check
// itself allocates nothing, keeping a warm machine's steady state
// allocation-free even with a hook armed.
func (m *Machine) SetRunHook(hook func(steps int64) error, every int64) {
	if every <= 0 {
		every = DefaultHookInterval
	}
	m.hook = hook
	m.hookEvery = every
	m.hookLeft = every
}

// storeWord writes the little-endian word at addr, which checkAddr has
// bounded to [0, MemSize-8].
func (m *Machine) storeWord(addr int64, w uint64) {
	off := addr & (pageSize - 1)
	if off > pageSize-8 {
		m.storeSplit(addr, w)
		return
	}
	binary.LittleEndian.PutUint64(m.storePage(addr >> pageShift)[off:], w)
}

// loadWord reads the little-endian word at addr, which checkAddr has
// bounded to [0, MemSize-8]. A page no store has mapped reads 0.
func (m *Machine) loadWord(addr int64) uint64 {
	off := addr & (pageSize - 1)
	if off > pageSize-8 {
		return m.loadSplit(addr)
	}
	if p := m.pages[addr>>pageShift]; p != nil {
		return binary.LittleEndian.Uint64(p[off:])
	}
	return 0
}

// storeSplit and loadSplit move a word whose bytes straddle two pages one
// byte at a time. Compiled code keeps its words aligned and never makes
// one; hand-assembled code can.
func (m *Machine) storeSplit(addr int64, w uint64) {
	for i := int64(0); i < 8; i++ {
		a := addr + i
		m.storePage(a >> pageShift)[a&(pageSize-1)] = byte(w >> (8 * i))
	}
}

func (m *Machine) loadSplit(addr int64) uint64 {
	var w uint64
	for i := int64(7); i >= 0; i-- {
		a := addr + i
		var b byte
		if p := m.pages[a>>pageShift]; p != nil {
			b = p[a&(pageSize-1)]
		}
		w = w<<8 | uint64(b)
	}
	return w
}

// storePage returns page n for a store. The run's first store into it maps
// the next zeroed page of the pool, allocating one only when the run has
// written more pages than any earlier run of the machine.
func (m *Machine) storePage(n int64) *page {
	if p := m.pages[n]; p != nil {
		return p
	}
	k := len(m.written)
	if k == len(m.pool) {
		m.pool = append(m.pool, new(page))
	}
	p := m.pool[k]
	m.pages[n] = p
	m.written = append(m.written, int32(n))
	return p
}

// Run executes the program from the start stub until HALT.
//
// The returned Result is owned by the machine and remains valid only until
// the machine's next Reset (fresh machines built with New are unaffected).
func (m *Machine) Run() (*Result, error) {
	for {
		_, res, err := m.Step(m.runBuf[:])
		if res != nil || err != nil {
			return res, err
		}
	}
}

// Step executes at most len(buf) instructions from the current PC and
// writes one record per committed instruction into buf[:n]. It returns the
// machine-owned Result once the machine reaches HALT (HALT itself commits
// no record), or the error of a trap; in both cases buf[:n] holds the
// records committed before it. A nil Result and nil error mean the buffer
// filled before HALT: call Step again to continue. The step limit and the
// run hook count instructions across calls, exactly as in Run.
func (m *Machine) Step(buf []Record) (n int, res *Result, err error) {
	st := &m.res.Stats
	insts := m.prog.Insts

	// Helpers are hoisted out of the interpreter loop so the steady state
	// performs no per-instruction work beyond the dispatch itself.
	ir := func(n uint8) int64 { return m.R[n] }
	fr := func(n uint8) uint64 { return m.F[n] }
	fi := func(n uint8) int64 { return int64(m.F[n]) }
	ff := func(n uint8) float64 { return math.Float64frombits(m.F[n]) }
	setR := func(n uint8, v int64) {
		if n != isa.RegZero {
			m.R[n] = v
		}
	}
	setF := func(n uint8, v uint64) { m.F[n] = v }
	setFf := func(n uint8, v float64) { setF(n, math.Float64bits(v)) }

	for ; n < len(buf); n++ {
		pc := m.PC
		if pc < 0 || pc >= len(insts) {
			return n, nil, fmt.Errorf("sim: PC %d out of range", pc)
		}
		in := &insts[pc]
		if in.Op == isa.HALT {
			return n, m.halt(), nil
		}
		m.steps++
		if m.steps > m.maxSteps {
			return n, nil, trap.New(trap.KindStepLimit, "sim", "step limit exceeded at PC %d", pc)
		}
		if m.hook != nil {
			m.hookLeft--
			if m.hookLeft <= 0 {
				m.hookLeft = m.hookEvery
				if err := m.hook(m.steps); err != nil {
					return n, nil, err
				}
			}
		}

		nextPC := pc + 1
		taken := false
		var addr int64

		switch in.Op {
		case isa.NOP:
		case isa.LI:
			setR(in.Rd, in.Imm)
		case isa.MOV:
			setR(in.Rd, ir(in.Rs))
		case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR,
			isa.XOR, isa.NOR, isa.SLL, isa.SRA, isa.SRL,
			isa.SEQ, isa.SNE, isa.SLT, isa.SLE, isa.SGT, isa.SGE:
			b := in.Imm
			if !in.UseImm {
				b = ir(in.Rt)
			}
			v, err := intALU(in.Op, ir(in.Rs), b, pc)
			if err != nil {
				return n, nil, err
			}
			setR(in.Rd, v)
		case isa.LW:
			addr = ir(in.Rs) + in.Imm
			if err := m.checkAddr(addr, in); err != nil {
				return n, nil, err
			}
			setR(in.Rd, int64(m.loadWord(addr)))
			st.Loads++
		case isa.SW:
			addr = ir(in.Rt) + in.Imm
			if err := m.checkAddr(addr, in); err != nil {
				return n, nil, err
			}
			m.storeWord(addr, uint64(ir(in.Rs)))
			st.Stores++
		case isa.BNEZ:
			taken = ir(in.Rs) != 0
			if taken {
				nextPC = in.Target
			}
			st.Branches++
		case isa.BEQZ:
			taken = ir(in.Rs) == 0
			if taken {
				nextPC = in.Target
			}
			st.Branches++
		case isa.J:
			nextPC = in.Target
		case isa.JAL:
			setR(isa.RegRA, int64(pc+1))
			nextPC = in.Target
		case isa.JR:
			nextPC = int(ir(in.Rs))
		case isa.PRNI:
			m.out = strconv.AppendInt(m.out, ir(in.Rs), 10)
			m.out = append(m.out, '\n')
		case isa.PRNF:
			m.out = strconv.AppendFloat(m.out, ff(in.Rs), 'g', 6, 64)
			m.out = append(m.out, '\n')

		case isa.LID:
			setFf(in.Rd, in.FImm)
		case isa.FMOV:
			setF(in.Rd, fr(in.Rs))
		case isa.FADD:
			setFf(in.Rd, ff(in.Rs)+ff(in.Rt))
		case isa.FSUB:
			setFf(in.Rd, ff(in.Rs)-ff(in.Rt))
		case isa.FMUL:
			setFf(in.Rd, ff(in.Rs)*ff(in.Rt))
		case isa.FDIV:
			setFf(in.Rd, ff(in.Rs)/ff(in.Rt))
		case isa.FNEG:
			setFf(in.Rd, -ff(in.Rs))
		case isa.FSEQ, isa.FSNE, isa.FSLT, isa.FSLE, isa.FSGT, isa.FSGE:
			setR(in.Rd, fcmp(in.Op, ff(in.Rs), ff(in.Rt)))
		case isa.CVTIF:
			setFf(in.Rd, float64(ir(in.Rs)))
		case isa.CVTFI:
			setR(in.Rd, int64(ff(in.Rs)))
		case isa.LD:
			addr = ir(in.Rs) + in.Imm
			if err := m.checkAddr(addr, in); err != nil {
				return n, nil, err
			}
			setF(in.Rd, m.loadWord(addr))
			st.Loads++
		case isa.SD:
			addr = ir(in.Rt) + in.Imm
			if err := m.checkAddr(addr, in); err != nil {
				return n, nil, err
			}
			m.storeWord(addr, fr(in.Rs))
			st.Stores++

		case isa.LIA:
			setF(in.Rd, uint64(in.Imm))
		case isa.MOVA:
			setF(in.Rd, fr(in.Rs))
		case isa.ADDA, isa.SUBA, isa.ANDA, isa.ORA, isa.XORA, isa.NORA,
			isa.SLLA, isa.SRAA, isa.SRLA,
			isa.SEQA, isa.SNEA, isa.SLTA, isa.SLEA, isa.SGTA, isa.SGEA:
			b := in.Imm
			if !in.UseImm {
				b = fi(in.Rt)
			}
			v, err := intALU(fpaToInt[in.Op], fi(in.Rs), b, pc)
			if err != nil {
				return n, nil, err
			}
			setF(in.Rd, uint64(v))
		case isa.BNEZA:
			taken = fi(in.Rs) != 0
			if taken {
				nextPC = in.Target
			}
			st.Branches++
		case isa.CP2FP:
			setF(in.Rd, uint64(ir(in.Rs)))
		case isa.CP2INT:
			setR(in.Rd, fi(in.Rs))
		case isa.LWFA:
			addr = ir(in.Rs) + in.Imm
			if err := m.checkAddr(addr, in); err != nil {
				return n, nil, err
			}
			setF(in.Rd, m.loadWord(addr))
			st.Loads++
		case isa.SWFA:
			addr = ir(in.Rt) + in.Imm
			if err := m.checkAddr(addr, in); err != nil {
				return n, nil, err
			}
			m.storeWord(addr, fr(in.Rs))
			st.Stores++
		default:
			return n, nil, fmt.Errorf("sim: unimplemented opcode %s at PC %d", in.Op, pc)
		}

		st.Total++
		st.BySubsys[isa.ExecSubsystem(in.Op)]++
		m.byOp[in.Op]++
		if in.Op == isa.CP2FP || in.Op == isa.CP2INT {
			st.Copies++
		}
		if in.IsDup {
			st.Dups++
		}
		buf[n] = Record{PC: int32(pc), Taken: taken, MemAddr: addr}
		m.PC = nextPC
	}
	return n, nil, nil
}

// checkAddr traps a memory access outside the address space. The bound is
// written so that no address, however large, can overflow it.
func (m *Machine) checkAddr(addr int64, in *isa.Inst) error {
	if addr < 0 || addr > MemSize-8 {
		return trap.New(trap.KindOutOfBounds, "sim", "memory access %#x out of range at PC %d (%s)", addr, m.PC, in)
	}
	return nil
}

// halt completes the machine-owned Result at HALT.
func (m *Machine) halt() *Result {
	st := &m.res.Stats
	m.res.Ret = m.R[isa.RegV0]
	m.res.Output = string(m.out)
	for op, n := range m.byOp {
		if n != 0 {
			st.ByOp[isa.Opcode(op)] = n
		}
	}
	return m.res
}

func intALU(op isa.Opcode, a, b int64, pc int) (int64, error) {
	switch op {
	case isa.ADD:
		return a + b, nil
	case isa.SUB:
		return a - b, nil
	case isa.MUL:
		return a * b, nil
	case isa.DIV:
		if b == 0 {
			return 0, trap.New(trap.KindDivideByZero, "sim", "integer divide by zero at PC %d", pc)
		}
		return a / b, nil
	case isa.REM:
		if b == 0 {
			return 0, trap.New(trap.KindDivideByZero, "sim", "integer remainder by zero at PC %d", pc)
		}
		return a % b, nil
	case isa.AND:
		return a & b, nil
	case isa.OR:
		return a | b, nil
	case isa.XOR:
		return a ^ b, nil
	case isa.NOR:
		return ^(a | b), nil
	case isa.SLL:
		return a << uint(b&63), nil
	case isa.SRA:
		return a >> uint(b&63), nil
	case isa.SRL:
		return int64(uint64(a) >> uint(b&63)), nil
	case isa.SEQ:
		return b2i(a == b), nil
	case isa.SNE:
		return b2i(a != b), nil
	case isa.SLT:
		return b2i(a < b), nil
	case isa.SLE:
		return b2i(a <= b), nil
	case isa.SGT:
		return b2i(a > b), nil
	case isa.SGE:
		return b2i(a >= b), nil
	}
	return 0, fmt.Errorf("sim: bad ALU op %s", op)
}

// fpaToInt maps each FPa integer opcode to the INT opcode it computes,
// indexed by opcode (zero for every other opcode).
var fpaToInt = [256]isa.Opcode{
	isa.ADDA: isa.ADD, isa.SUBA: isa.SUB, isa.ANDA: isa.AND, isa.ORA: isa.OR,
	isa.XORA: isa.XOR, isa.NORA: isa.NOR, isa.SLLA: isa.SLL,
	isa.SRAA: isa.SRA, isa.SRLA: isa.SRL,
	isa.SEQA: isa.SEQ, isa.SNEA: isa.SNE, isa.SLTA: isa.SLT,
	isa.SLEA: isa.SLE, isa.SGTA: isa.SGT, isa.SGEA: isa.SGE,
}

func fcmp(op isa.Opcode, a, b float64) int64 {
	switch op {
	case isa.FSEQ:
		return b2i(a == b)
	case isa.FSNE:
		return b2i(a != b)
	case isa.FSLT:
		return b2i(a < b)
	case isa.FSLE:
		return b2i(a <= b)
	case isa.FSGT:
		return b2i(a > b)
	case isa.FSGE:
		return b2i(a >= b)
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
