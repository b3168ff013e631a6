package ir

import (
	"fmt"
	"strings"
)

// String renders the whole module.
func (m *Module) String() string {
	var sb strings.Builder
	for _, g := range m.Globals {
		kind := "int"
		if g.IsFloat {
			kind = "float"
		}
		fmt.Fprintf(&sb, "global %s %s[%d]\n", kind, g.Name, g.Words)
	}
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// String renders the function with block labels and numbered instructions.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s:%s", p, f.VRegType(p))
	}
	fmt.Fprintf(&sb, ") %s {\n", f.RetType)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:", b.ID)
		if len(b.Preds) > 0 {
			sb.WriteString("  ; preds:")
			for _, p := range b.Preds {
				fmt.Fprintf(&sb, " b%d", p.ID)
			}
		}
		if b.LoopDepth > 0 {
			fmt.Fprintf(&sb, " ; depth=%d", b.LoopDepth)
		}
		sb.WriteByte('\n')
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "\t%s\n", in.NumberedString())
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Verify checks structural invariants of the function:
//   - every block ends with exactly one terminator (and only the last
//     instruction is a terminator),
//   - every instruction is numbered as Renumber leaves it: its Blk and
//     Idx locate it, and IDs run 0, 1, 2, ... in block order, so readers
//     keyed by ID (the RDG, the analyses) need not renumber,
//   - successor counts match the terminator kind,
//   - operand and destination registers are well typed,
//   - predecessor lists are consistent with successor lists.
//
// The first violation is reported, in block order; of several
// inconsistent predecessors of one block, the one with the lowest ID.
func (f *Func) Verify() error {
	n := f.NumBlockIDs()
	id := 0
	// The sources of the CFG edges into each block, from the successor
	// lists: into[off[id]:off[id+1]] for the block with that ID. Counting
	// into off[id+2] and filling through off[id+1] leaves each bucket's
	// bounds in place.
	off := make([]int, n+2)
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("%s: block b%d is empty", f.Name, b.ID)
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				return fmt.Errorf("%s: b%d instr %d (%s): terminator placement", f.Name, b.ID, i, in)
			}
			if in.Blk != b || in.Idx != i || in.ID != id {
				return fmt.Errorf("%s: b%d instr %d (%s): stale numbering; Renumber after editing", f.Name, b.ID, i, in)
			}
			id++
			if err := f.verifyInstr(in); err != nil {
				return fmt.Errorf("%s: b%d: %v", f.Name, b.ID, err)
			}
		}
		term := b.Instrs[len(b.Instrs)-1]
		want := 0
		switch term.Op {
		case OpBr:
			want = 2
		case OpJmp:
			want = 1
		case OpRet:
			want = 0
		}
		if len(b.Succs) != want {
			return fmt.Errorf("%s: b%d: %s has %d successors, want %d", f.Name, b.ID, term.Op, len(b.Succs), want)
		}
		for _, s := range b.Succs {
			off[s.ID+2]++
		}
	}
	for id := 2; id < len(off); id++ {
		off[id] += off[id-1]
	}
	into := make([]*Block, off[n+1])
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			into[off[s.ID+1]] = b
			off[s.ID+1]++
		}
	}
	// net[p] counts p's entries in b.Preds less its edges into b; every
	// entry is zero again after each block.
	net := make([]int, n)
	for _, b := range f.Blocks {
		edges := into[off[b.ID]:off[b.ID+1]]
		for _, p := range edges {
			net[p.ID]--
		}
		for _, p := range b.Preds {
			net[p.ID]++
		}
		bad := -1
		for _, srcs := range [2][]*Block{edges, b.Preds} {
			for _, p := range srcs {
				if net[p.ID] != 0 && (bad < 0 || p.ID < bad) {
					bad = p.ID
				}
			}
		}
		if bad >= 0 {
			if net[bad] < 0 {
				return fmt.Errorf("%s: b%d: pred list inconsistent with succ of b%d", f.Name, b.ID, bad)
			}
			return fmt.Errorf("%s: b%d: stale pred b%d", f.Name, b.ID, bad)
		}
	}
	return nil
}

func (f *Func) verifyInstr(in *Instr) error {
	checkType := func(v VReg, want Type) error {
		got := f.VRegType(v)
		if got != want {
			return fmt.Errorf("instr %q: register %s has type %s, want %s", in, v, got, want)
		}
		return nil
	}
	nargs := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("instr %q: %d args, want %d", in, len(in.Args), n)
		}
		return nil
	}
	switch in.Op {
	case OpNop:
		return nil
	case OpConst:
		if in.Dst == 0 {
			return fmt.Errorf("instr %q: const without dst", in)
		}
		want := I64
		if in.IsFloat {
			want = F64
		}
		return checkType(in.Dst, want)
	case OpCopy:
		if err := nargs(1); err != nil {
			return err
		}
		if f.VRegType(in.Dst) != f.VRegType(in.Args[0]) {
			return fmt.Errorf("instr %q: copy type mismatch", in)
		}
		return nil
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpNor,
		OpShl, OpShrA, OpShrL,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE:
		want := 2
		if in.ImmArg {
			want = 1
			switch in.Op {
			case OpMul, OpDiv, OpRem:
				return fmt.Errorf("instr %q: no immediate form", in)
			}
		}
		if err := nargs(want); err != nil {
			return err
		}
		for _, a := range in.Args {
			if err := checkType(a, I64); err != nil {
				return err
			}
		}
		return checkType(in.Dst, I64)
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		if err := nargs(2); err != nil {
			return err
		}
		for _, a := range in.Args {
			if err := checkType(a, F64); err != nil {
				return err
			}
		}
		return checkType(in.Dst, F64)
	case OpFNeg:
		if err := nargs(1); err != nil {
			return err
		}
		if err := checkType(in.Args[0], F64); err != nil {
			return err
		}
		return checkType(in.Dst, F64)
	case OpFCmpEQ, OpFCmpNE, OpFCmpLT, OpFCmpLE, OpFCmpGT, OpFCmpGE:
		if err := nargs(2); err != nil {
			return err
		}
		for _, a := range in.Args {
			if err := checkType(a, F64); err != nil {
				return err
			}
		}
		return checkType(in.Dst, I64)
	case OpCvtIF:
		if err := nargs(1); err != nil {
			return err
		}
		if err := checkType(in.Args[0], I64); err != nil {
			return err
		}
		return checkType(in.Dst, F64)
	case OpCvtFI:
		if err := nargs(1); err != nil {
			return err
		}
		if err := checkType(in.Args[0], F64); err != nil {
			return err
		}
		return checkType(in.Dst, I64)
	case OpLoad:
		if err := nargs(1); err != nil {
			return err
		}
		if err := checkType(in.Args[0], I64); err != nil {
			return err
		}
		want := I64
		if in.IsFloat {
			want = F64
		}
		return checkType(in.Dst, want)
	case OpStore:
		if err := nargs(2); err != nil {
			return err
		}
		want := I64
		if in.IsFloat {
			want = F64
		}
		if err := checkType(in.Args[0], want); err != nil {
			return err
		}
		return checkType(in.Args[1], I64)
	case OpAddrGlobal:
		if in.Sym == "" {
			return fmt.Errorf("instr %q: addrg without symbol", in)
		}
		return checkType(in.Dst, I64)
	case OpAddrLocal:
		if in.Imm < 0 || in.Imm >= int64(len(f.LocalSlots)) {
			return fmt.Errorf("instr %q: bad local slot %d", in, in.Imm)
		}
		return checkType(in.Dst, I64)
	case OpCall:
		if in.Sym == "" {
			return fmt.Errorf("instr %q: call without symbol", in)
		}
		return nil
	case OpBr:
		if err := nargs(1); err != nil {
			return err
		}
		return checkType(in.Args[0], I64)
	case OpJmp:
		return nargs(0)
	case OpRet:
		if len(in.Args) > 1 {
			return fmt.Errorf("instr %q: ret with %d args", in, len(in.Args))
		}
		if len(in.Args) == 1 {
			want := f.RetType
			if f.VRegType(in.Args[0]) != want {
				return fmt.Errorf("instr %q: ret type mismatch", in)
			}
		}
		return nil
	}
	return fmt.Errorf("instr %q: unknown op", in)
}

// Loop is the natural loop of one back edge.
type Loop struct {
	Header *Block
	Blocks []*Block // every member block, the header included, in layout order

	member []bool // indexed by Block.ID
}

// Contains reports whether b is a member of the loop.
func (l *Loop) Contains(b *Block) bool { return b.ID < len(l.member) && l.member[b.ID] }

// NaturalLoops returns the natural loop of every back edge b→h (an edge
// whose target h dominates b) in discovery order: blocks in layout order,
// each block's successors in order. A header with two back edges has two
// loops.
func (f *Func) NaturalLoops() []Loop {
	idom := f.idoms()
	var loops []Loop
	var stack []*Block
	for _, b := range f.Blocks {
		for _, h := range b.Succs {
			if !dominates(idom, h, b) {
				continue
			}
			// h plus every block that reaches b without passing through h.
			member := make([]bool, f.nextBlockID)
			member[h.ID] = true
			n := 1
			if b != h {
				member[b.ID] = true
				n++
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range x.Preds {
					if !member[p.ID] {
						member[p.ID] = true
						n++
						stack = append(stack, p)
					}
				}
			}
			blocks := make([]*Block, 0, n)
			for _, blk := range f.Blocks {
				if member[blk.ID] {
					blocks = append(blocks, blk)
				}
			}
			loops = append(loops, Loop{Header: h, Blocks: blocks, member: member})
		}
	}
	return loops
}

// ComputeLoopDepths sets every block's LoopDepth to the number of natural
// loops containing it.
func (f *Func) ComputeLoopDepths() {
	for _, b := range f.Blocks {
		b.LoopDepth = 0
	}
	for _, lp := range f.NaturalLoops() {
		for _, blk := range lp.Blocks {
			blk.LoopDepth++
		}
	}
}

// idoms returns the immediate dominator of every block, indexed by
// Block.ID: the entry is its own, an unreachable block has nil. It is the
// iterative Cooper–Harvey–Kennedy algorithm over reverse postorder.
func (f *Func) idoms() []*Block {
	order := f.ReversePostorder()
	index := make([]int, f.nextBlockID)
	for i, b := range order {
		index[b.ID] = i
	}
	idom := make([]*Block, f.nextBlockID)
	idom[f.Entry.ID] = f.Entry
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if b == f.Entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if idom[p.ID] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
					continue
				}
				// intersect
				x, y := p, newIdom
				for x != y {
					for index[x.ID] > index[y.ID] {
						x = idom[x.ID]
					}
					for index[y.ID] > index[x.ID] {
						y = idom[y.ID]
					}
				}
				newIdom = x
			}
			if newIdom != nil && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// dominates reports whether a dominates b, given idom indexed by Block.ID.
func dominates(idom []*Block, a, b *Block) bool {
	for {
		if b == a {
			return true
		}
		next := idom[b.ID]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// ReversePostorder returns blocks reachable from entry in reverse postorder.
func (f *Func) ReversePostorder() []*Block {
	order := make([]*Block, 0, len(f.Blocks))
	visited := make([]bool, f.nextBlockID)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		visited[b.ID] = true
		for _, s := range b.Succs {
			if !visited[s.ID] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(f.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}
