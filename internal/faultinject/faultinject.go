// Package faultinject implements the deterministic transient-fault model
// for the timing simulator. It answers the robustness question the paper
// leaves open: what does the INT-on-FPa offload machinery cost when the
// extra hardware misbehaves?
//
// The model injects transient faults into the microarchitectural machine —
// register-file bit flips, corrupted FPa→INT copy results on the result
// bus, dropped or delayed FPa writebacks, and wrong-subsystem dispatch —
// paired with a detection/recovery discipline: every result bus carries
// parity, a parity mismatch at writeback triggers a pipeline flush of all
// younger instructions and a replay of the faulted one. Architectural
// state is therefore never corrupted; faults cost cycles, not correctness,
// and the recovery cycles flow into the timing model's closed stall ledger
// under a dedicated fault-recovery stall cause.
//
// Determinism is the load-bearing property: a Plan is a pure function of
// its seed. Fault decisions are drawn from a counter-keyed hash of the
// dynamic instruction index (not from issue order or wall time), so the
// same seed over the same program reproduces a byte-identical fault trace
// — enforced by test and relied on by the fpifuzz -faults sweep.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"

	"fpint/internal/isa"
)

// Kind classifies an injected transient fault.
type Kind uint8

// Fault kinds. KindNone is the no-fault verdict; KindAny asks the plan to
// pick uniformly among the kinds applicable to each instruction.
const (
	KindNone Kind = iota
	// KindRegBitFlip: a bit flips in the physical register file; parity
	// detects it when the value crosses the result bus. Applicable to any
	// instruction that writes a register.
	KindRegBitFlip
	// KindCopyCorrupt: an FPa→INT copy (CP2INT) delivers a corrupted value
	// across the inter-file result bus. The copy is the paper's §6.4 escape
	// hatch for call arguments and return values, so this kind stresses
	// exactly the traffic the advanced scheme adds.
	KindCopyCorrupt
	// KindWritebackDrop: an FPa writeback is dropped on the way to the FP
	// register file; the parity/valid check times out and the producer is
	// replayed. Applicable to FPa-subsystem instructions with a destination.
	KindWritebackDrop
	// KindWritebackDelay: an FPa writeback is delayed (bus arbitration
	// glitch). No flush — consumers simply wait longer. Applicable to
	// FPa-subsystem instructions with a destination.
	KindWritebackDelay
	// KindWrongDispatch: the steering logic routes an ALU instruction to
	// the wrong subsystem queue; the mismatch is detected at issue and the
	// instruction is flushed and re-dispatched. Applicable to non-memory
	// INT and FPa instructions.
	KindWrongDispatch
	// KindAny draws uniformly among the kinds applicable to the
	// instruction under decision.
	KindAny
)

var kindNames = [...]string{
	KindNone:           "none",
	KindRegBitFlip:     "reg-bitflip",
	KindCopyCorrupt:    "copy-corrupt",
	KindWritebackDrop:  "wb-drop",
	KindWritebackDelay: "wb-delay",
	KindWrongDispatch:  "wrong-dispatch",
	KindAny:            "any",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// KindFromString parses a kind name as spelled in -inject-fault specs.
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s && Kind(k) != KindNone {
			return Kind(k), true
		}
	}
	return KindNone, false
}

// Config parameterizes a fault plan.
type Config struct {
	// Seed keys every pseudo-random draw. Same seed ⇒ same fault trace.
	Seed int64
	// Kind selects the fault kind to inject (KindAny mixes all kinds).
	Kind Kind
	// Rate is the per-instruction fault probability in [0,1]. Each dynamic
	// instruction is a single fault opportunity; replayed instances are
	// covered by parity and never re-fault.
	Rate float64
	// FlushPenalty is the front-end refill cost, in cycles, of a
	// detection-triggered pipeline flush (default 5).
	FlushPenalty int
	// DelayCycles is the extra latency of a delayed writeback (default 8).
	DelayCycles int
}

// withDefaults fills zero-valued knobs.
func (c Config) withDefaults() Config {
	if c.FlushPenalty == 0 {
		c.FlushPenalty = 5
	}
	if c.DelayCycles == 0 {
		c.DelayCycles = 8
	}
	if c.Kind == KindNone {
		c.Kind = KindAny
	}
	return c
}

// ParseSpec parses the CLI fault specification "seed=N,kind=K,rate=R"
// (fields in any order; kind defaults to any, seed to 1). Rate is
// mandatory: a fault plan with rate 0 injects nothing and is almost
// certainly a spelling mistake.
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Seed: 1, Kind: KindAny, Rate: -1}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault spec field %q is not key=value", field)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("fault spec seed %q: %v", val, err)
			}
			cfg.Seed = n
		case "kind":
			k, ok := KindFromString(val)
			if !ok {
				return Config{}, fmt.Errorf("fault spec kind %q (want reg-bitflip, copy-corrupt, wb-drop, wb-delay, wrong-dispatch, or any)", val)
			}
			cfg.Kind = k
		case "rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || !(r >= 0 && r <= 1) { // NaN fails both comparisons
				return Config{}, fmt.Errorf("fault spec rate %q: want a probability in [0,1]", val)
			}
			cfg.Rate = r
		default:
			return Config{}, fmt.Errorf("fault spec key %q (want seed, kind, or rate)", key)
		}
	}
	if cfg.Rate < 0 {
		return Config{}, fmt.Errorf("fault spec %q: rate is required (e.g. rate=0.001)", spec)
	}
	return cfg, nil
}

// Fault is one injected-and-detected fault, as recorded in the trace.
type Fault struct {
	Seq      int64      // dynamic instruction index (program order)
	PC       int        // static instruction index
	Op       isa.Opcode // faulted instruction
	Kind     Kind
	Cycle    int64 // cycle the fault was detected
	Recovery int64 // recovery cycles added to the faulted instruction
}

// Plan is a seeded, fully deterministic fault schedule plus the trace of
// faults actually injected. A Plan is single-run state: attach a fresh one
// per simulation.
type Plan struct {
	cfg   Config
	fired map[int64]Kind // dynamic index → injected kind (parity memo)
	trace []Fault
}

// NewPlan builds a plan for cfg (zero-valued knobs get defaults).
func NewPlan(cfg Config) *Plan {
	return &Plan{cfg: cfg.withDefaults(), fired: make(map[int64]Kind)}
}

// Config returns the plan's effective (default-filled) configuration.
func (p *Plan) Config() Config { return p.cfg }

// applicable lists the fault kinds that can strike an instruction.
func applicable(op isa.Opcode, hasDst bool) []Kind {
	var ks []Kind
	if hasDst {
		ks = append(ks, KindRegBitFlip)
	}
	if op == isa.CP2INT {
		ks = append(ks, KindCopyCorrupt)
	}
	if isa.ExecSubsystem(op) == isa.SubFPa && hasDst {
		ks = append(ks, KindWritebackDrop, KindWritebackDelay)
	}
	if !isa.IsMem(op) && !isa.IsControl(op) && isa.ExecSubsystem(op) != isa.SubFP {
		ks = append(ks, KindWrongDispatch)
	}
	return ks
}

// Decide returns the fault kind (or KindNone) for the dynamic instruction
// with index seq. The decision is a pure function of (seed, seq, op,
// hasDst); repeated calls for the same seq after a fault fired return
// KindNone, modeling parity-clean replay. Decide does not record a trace
// entry — the caller reports the detection via Record once it knows the
// cycle and recovery cost.
func (p *Plan) Decide(seq int64, op isa.Opcode, hasDst bool) Kind {
	if p.cfg.Rate <= 0 {
		return KindNone
	}
	if _, done := p.fired[seq]; done {
		return KindNone
	}
	draw := hash2(uint64(p.cfg.Seed), uint64(seq))
	// 53-bit uniform in [0,1).
	if float64(draw>>11)/(1<<53) >= p.cfg.Rate {
		return KindNone
	}
	ks := applicable(op, hasDst)
	if len(ks) == 0 {
		return KindNone
	}
	kind := p.cfg.Kind
	if kind == KindAny {
		kind = ks[hash2(uint64(p.cfg.Seed)^0x9e3779b97f4a7c15, uint64(seq))%uint64(len(ks))]
	} else {
		ok := false
		for _, k := range ks {
			if k == kind {
				ok = true
				break
			}
		}
		if !ok {
			return KindNone
		}
	}
	p.fired[seq] = kind
	return kind
}

// Recovery returns the cycles the detection/recovery discipline adds to a
// faulted instruction whose fault-free latency is lat: flush kinds pay the
// front-end refill penalty plus a full re-execution; a delayed writeback
// pays only the configured bus delay.
func (p *Plan) Recovery(kind Kind, lat int64) int64 {
	if kind == KindWritebackDelay {
		return int64(p.cfg.DelayCycles)
	}
	return int64(p.cfg.FlushPenalty) + lat
}

// Flushes reports whether kind triggers a pipeline flush (squash of all
// younger in-flight instructions) on detection.
func (kind Kind) Flushes() bool {
	return kind != KindNone && kind != KindWritebackDelay
}

// Record appends one detected fault to the trace.
func (p *Plan) Record(f Fault) { p.trace = append(p.trace, f) }

// Trace returns the faults injected so far, in detection order.
func (p *Plan) Trace() []Fault { return p.trace }

// TraceString renders the fault trace in a canonical line format; byte
// equality of two traces is the reproducibility criterion.
func (p *Plan) TraceString() string {
	var sb strings.Builder
	for _, f := range p.trace {
		fmt.Fprintf(&sb, "seq=%d pc=%d op=%s kind=%s cycle=%d recovery=%d\n",
			f.Seq, f.PC, f.Op, f.Kind, f.Cycle, f.Recovery)
	}
	return sb.String()
}

// Summary aggregates the trace per kind.
type Summary struct {
	Injected       int64
	RecoveryCycles int64
	ByKind         map[string]int64
}

// Summarize folds the trace into counts.
func (p *Plan) Summarize() Summary {
	s := Summary{ByKind: make(map[string]int64)}
	for _, f := range p.trace {
		s.Injected++
		s.RecoveryCycles += f.Recovery
		s.ByKind[f.Kind.String()]++
	}
	return s
}

// hash2 mixes two words with the splitmix64 finalizer — a small, stable
// stateless PRF so decisions depend only on (seed, seq).
func hash2(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
