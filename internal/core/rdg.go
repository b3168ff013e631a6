// Package core implements the paper's primary contribution: the register
// dependence graph (RDG) and the two code-partitioning schemes (basic and
// advanced) that offload integer computation from the INT subsystem to the
// augmented floating-point subsystem (FPa).
//
// Terminology follows the paper (§3): the RDG has a node per static
// instruction, with load and store instructions split into an address node
// and a value node. There is no edge between the two halves of a split
// node, which is what makes backward slices stop at load values and forward
// slices stop at addresses.
package core

import (
	"fmt"
	"math"

	"fpint/internal/dataflow"
	"fpint/internal/interp"
	"fpint/internal/ir"
)

// NodeID indexes nodes within one function's RDG.
type NodeID int32

// NodeKind distinguishes the roles RDG nodes play.
type NodeKind uint8

// Node kinds.
const (
	KindPlain     NodeKind = iota // ALU op, const, copy, address materialization
	KindLoadAddr                  // address half of a load
	KindLoadVal                   // value half of a load
	KindStoreAddr                 // address half of a store
	KindStoreVal                  // value half of a store
	KindBranch                    // conditional branch
	KindJump                      // unconditional jump (no operands)
	KindCall                      // call site (int args in, int ret out)
	KindRet                       // return (int return value use)
	KindParam                     // dummy node for a formal parameter (§6.4)
)

var kindNames = [...]string{
	KindPlain: "plain", KindLoadAddr: "load-addr", KindLoadVal: "load-val",
	KindStoreAddr: "store-addr", KindStoreVal: "store-val",
	KindBranch: "branch", KindJump: "jump", KindCall: "call",
	KindRet: "ret", KindParam: "param",
}

// String returns the kind name.
func (k NodeKind) String() string { return kindNames[k] }

// Class constrains where a node may execute.
type Class uint8

// Placement classes.
const (
	// ClassFlex nodes may be assigned to INT or FPa.
	ClassFlex Class = iota
	// ClassPinInt nodes must execute in the INT subsystem: load/store
	// address halves, integer multiply/divide/remainder (not supported by
	// FPa), calls, integer returns, and parameter dummies.
	ClassPinInt
	// ClassFixedFP nodes are floating-point operations that always execute
	// in the FP subsystem regardless of partitioning; they never join RDG
	// components (their values cross register files through the existing FP
	// datapaths).
	ClassFixedFP
)

// Node is one RDG node.
type Node struct {
	ID    NodeID
	Kind  NodeKind
	Class Class

	// Instr is the underlying IR instruction (nil for KindParam nodes).
	Instr *ir.Instr
	// ParamIdx is valid for KindParam nodes.
	ParamIdx int

	// Parents and Children are the I64 register def-use edges among
	// partitionable (non-FixedFP) nodes. Edges are deduplicated.
	Parents  []NodeID
	Children []NodeID

	// Count is the estimated execution count of the node (profile-derived
	// or the probabilistic p_B * 5^d_B estimate).
	Count float64

	// IsActualArg marks nodes whose integer value flows directly into a
	// call argument or a return value — the positions that calling
	// conventions force into integer registers (§6.4).
	IsActualArg bool
}

// AddrOracle lets a static analysis vouch for load/store addresses. When
// SafeAddr returns ok for an instruction ID, the partitioner may treat the
// address half of that load/store as flexible instead of pinned to INT: the
// analysis has proven the address a well-behaved access to a known object,
// so computing it on the FPa side (and materializing it into an integer
// register at the access) cannot change what the access touches. The reason
// string is recorded as the audit-trail justification and re-checked by the
// partition verifier.
type AddrOracle interface {
	SafeAddr(instrID int) (reason string, ok bool)
}

// Graph is the RDG of one function.
type Graph struct {
	Fn    *ir.Func
	Nodes []*Node

	// Unpinned records the oracle justification for every load/store
	// address node that was built ClassFlex instead of ClassPinInt. The
	// partition verifier refuses FPa address nodes without an entry here.
	Unpinned map[NodeID]string

	// Node lookup per instruction ID.
	mainNode  map[int]NodeID // Plain/Branch/Jump/Call/Ret nodes
	loadAddr  map[int]NodeID
	loadVal   map[int]NodeID
	storeAddr map[int]NodeID
	storeVal  map[int]NodeID
	paramNode []NodeID // indexed by parameter position

	rd *dataflow.ReachingDefs
}

// NodeForInstr returns the main node of an instruction (not valid for
// loads/stores, which are split).
func (g *Graph) NodeForInstr(id int) (NodeID, bool) {
	n, ok := g.mainNode[id]
	return n, ok
}

// LoadValNode returns the value node of load instruction id.
func (g *Graph) LoadValNode(id int) (NodeID, bool) { n, ok := g.loadVal[id]; return n, ok }

// StoreValNode returns the value node of store instruction id.
func (g *Graph) StoreValNode(id int) (NodeID, bool) { n, ok := g.storeVal[id]; return n, ok }

// BuildGraph constructs the RDG for fn. The profile may be nil; functions
// not covered by it get the probabilistic estimate p_B * 5^d_B, with both
// branch directions assumed equally likely (§6.1).
func BuildGraph(fn *ir.Func, profile *interp.Profile) *Graph {
	return BuildGraphWithOracle(fn, profile, nil)
}

// BuildGraphWithOracle constructs the RDG for fn, consulting oracle (which
// may be nil) to unpin load/store address nodes the analysis proved safe.
// Every unpin is recorded in Graph.Unpinned with its justification. It
// only reads fn, whose instructions must be numbered as Func.Verify checks.
func BuildGraphWithOracle(fn *ir.Func, profile *interp.Profile, oracle AddrOracle) *Graph {
	g := &Graph{
		Fn:        fn,
		Unpinned:  make(map[NodeID]string),
		mainNode:  make(map[int]NodeID),
		loadAddr:  make(map[int]NodeID),
		loadVal:   make(map[int]NodeID),
		storeAddr: make(map[int]NodeID),
		storeVal:  make(map[int]NodeID),
	}
	g.rd = dataflow.ComputeReachingDefs(fn)
	counts := blockCounts(fn, profile)

	newNode := func(kind NodeKind, class Class, in *ir.Instr, count float64) NodeID {
		id := NodeID(len(g.Nodes))
		g.Nodes = append(g.Nodes, &Node{ID: id, Kind: kind, Class: class, Instr: in, Count: count})
		return id
	}

	// addrClass picks the class of a load/store address node: pinned to INT
	// by default (the integer pipeline owns address computation), flexible
	// when the oracle proves the access safe.
	addrClass := func(in *ir.Instr) (Class, string, bool) {
		if oracle != nil {
			if reason, ok := oracle.SafeAddr(in.ID); ok {
				return ClassFlex, reason, true
			}
		}
		return ClassPinInt, "", false
	}

	// Parameter dummy nodes, pre-assigned to INT (§6.4). Float parameters
	// arrive in FP registers and are FixedFP.
	entryCount := counts[fn.Entry]
	for i, p := range fn.Params {
		class := ClassPinInt
		if fn.VRegType(p) == ir.F64 {
			class = ClassFixedFP
		}
		id := newNode(KindParam, class, nil, entryCount)
		g.Nodes[id].ParamIdx = i
		g.paramNode = append(g.paramNode, id)
	}

	// Instruction nodes.
	for _, b := range fn.Blocks {
		cnt := counts[b]
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				aClass, reason, unpinned := addrClass(in)
				aNode := newNode(KindLoadAddr, aClass, in, cnt)
				g.loadAddr[in.ID] = aNode
				if unpinned {
					g.Unpinned[aNode] = reason
				}
				valClass := ClassFlex
				if in.IsFloat {
					valClass = ClassFixedFP
				}
				g.loadVal[in.ID] = newNode(KindLoadVal, valClass, in, cnt)
			case ir.OpStore:
				aClass, reason, unpinned := addrClass(in)
				aNode := newNode(KindStoreAddr, aClass, in, cnt)
				g.storeAddr[in.ID] = aNode
				if unpinned {
					g.Unpinned[aNode] = reason
				}
				valClass := ClassFlex
				if in.IsFloat {
					valClass = ClassFixedFP
				}
				g.storeVal[in.ID] = newNode(KindStoreVal, valClass, in, cnt)
			case ir.OpCall:
				g.mainNode[in.ID] = newNode(KindCall, ClassPinInt, in, cnt)
			case ir.OpRet:
				class := ClassPinInt
				if len(in.Args) == 1 && fn.VRegType(in.Args[0]) == ir.F64 {
					class = ClassFixedFP
				}
				g.mainNode[in.ID] = newNode(KindRet, class, in, cnt)
			case ir.OpBr:
				g.mainNode[in.ID] = newNode(KindBranch, ClassFlex, in, cnt)
			case ir.OpJmp, ir.OpNop:
				g.mainNode[in.ID] = newNode(KindJump, ClassPinInt, in, cnt)
			case ir.OpMul, ir.OpDiv, ir.OpRem:
				// Integer multiply/divide are not supported by the
				// augmented FP subsystem (§1, 22-opcode extension).
				g.mainNode[in.ID] = newNode(KindPlain, ClassPinInt, in, cnt)
			case ir.OpAddrLocal:
				// Frame-slot addresses read the stack pointer, which lives
				// in the integer file.
				g.mainNode[in.ID] = newNode(KindPlain, ClassPinInt, in, cnt)
			case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFNeg,
				ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE,
				ir.OpFCmpGT, ir.OpFCmpGE, ir.OpCvtIF, ir.OpCvtFI:
				g.mainNode[in.ID] = newNode(KindPlain, ClassFixedFP, in, cnt)
			case ir.OpConst, ir.OpCopy:
				class := ClassFlex
				if in.IsFloat || (in.Dst != 0 && fn.VRegType(in.Dst) == ir.F64) {
					class = ClassFixedFP
				}
				g.mainNode[in.ID] = newNode(KindPlain, class, in, cnt)
			default:
				// Integer ALU, address materializations.
				g.mainNode[in.ID] = newNode(KindPlain, ClassFlex, in, cnt)
			}
		}
	}

	g.addEdges()
	g.markActualArgs()
	return g
}

// defNode maps a reaching-definition site to the RDG node that produces the
// value: a parameter dummy, a load's value node, or the def instruction's
// main node. ok=false when the producer is FixedFP (the edge is cut — the
// value crosses through existing FP datapaths).
func (g *Graph) defNode(site dataflow.DefSite) (NodeID, bool) {
	if site.Instr == nil {
		id := g.paramNode[site.ParamIdx]
		return id, g.Nodes[id].Class != ClassFixedFP
	}
	in := site.Instr
	if in.Op == ir.OpLoad {
		id := g.loadVal[in.ID]
		return id, g.Nodes[id].Class != ClassFixedFP
	}
	id, ok := g.mainNode[in.ID]
	if !ok {
		return 0, false
	}
	return id, g.Nodes[id].Class != ClassFixedFP
}

// useNode maps (instruction, operand index) to the RDG node that consumes
// the value.
func (g *Graph) useNode(in *ir.Instr, argIdx int) (NodeID, bool) {
	switch in.Op {
	case ir.OpLoad:
		return g.loadAddr[in.ID], true
	case ir.OpStore:
		if argIdx == 0 {
			id := g.storeVal[in.ID]
			return id, g.Nodes[id].Class != ClassFixedFP
		}
		return g.storeAddr[in.ID], true
	}
	id, ok := g.mainNode[in.ID]
	if !ok {
		return 0, false
	}
	return id, g.Nodes[id].Class != ClassFixedFP
}

func (g *Graph) addEdges() {
	type edge struct{ p, c NodeID }
	seen := make(map[edge]bool)
	connect := func(p, c NodeID) {
		if p == c {
			return
		}
		e := edge{p, c}
		if seen[e] {
			return
		}
		seen[e] = true
		g.Nodes[p].Children = append(g.Nodes[p].Children, c)
		g.Nodes[c].Parents = append(g.Nodes[c].Parents, p)
	}
	for _, b := range g.Fn.Blocks {
		for _, in := range b.Instrs {
			uses := g.rd.UseDefs[in.ID]
			for ai := range in.Args {
				// Only integer register values create partition edges.
				if g.Fn.VRegType(in.Args[ai]) != ir.I64 {
					continue
				}
				useN, useOK := g.useNode(in, ai)
				if !useOK {
					continue
				}
				for _, d := range uses[ai] {
					defN, defOK := g.defNode(g.rd.Site(d))
					if !defOK {
						continue
					}
					connect(defN, useN)
				}
			}
		}
	}
}

// markActualArgs flags nodes feeding integer call arguments or integer
// return values (§6.4): these values must end up in integer registers, so a
// producer left in FPa pays an FPa→INT copy.
func (g *Graph) markActualArgs() {
	for _, n := range g.Nodes {
		if n.Kind != KindCall && n.Kind != KindRet {
			continue
		}
		for _, p := range n.Parents {
			g.Nodes[p].IsActualArg = true
		}
	}
}

// ArgProducers returns the RDG nodes producing operand argIdx of the given
// instruction (via reaching definitions). ok=false for operands whose
// producers include fixed-FP nodes or which are not integer register values.
// Used by the interprocedural FP-argument-passing extension (§6.6).
func (g *Graph) ArgProducers(in *ir.Instr, argIdx int) (producers []NodeID, ok bool) {
	if argIdx >= len(in.Args) || g.Fn.VRegType(in.Args[argIdx]) != ir.I64 {
		return nil, false
	}
	uses := g.rd.UseDefs[in.ID]
	if argIdx >= len(uses) {
		return nil, false
	}
	for _, d := range uses[argIdx] {
		n, defOK := g.defNode(g.rd.Site(d))
		if !defOK {
			return nil, false
		}
		producers = append(producers, n)
	}
	return producers, true
}

// blockCounts returns the execution-count estimate of every block, from the
// profile when the function is covered, otherwise p_B * 5^d_B.
func blockCounts(fn *ir.Func, profile *interp.Profile) map[*ir.Block]float64 {
	counts := make(map[*ir.Block]float64, len(fn.Blocks))
	if profile.Covered(fn.Name) {
		for _, b := range fn.Blocks {
			counts[b] = float64(profile.BlockCount(fn.Name, b.ID))
		}
		return counts
	}
	// Probabilistic estimate: propagate reach probability along forward
	// edges in reverse postorder (both branch directions equally likely),
	// then scale by 5^loopDepth.
	prob := make(map[*ir.Block]float64, len(fn.Blocks))
	order := fn.ReversePostorder()
	pos := make(map[*ir.Block]int, len(order))
	for i, b := range order {
		pos[b] = i
	}
	prob[fn.Entry] = 1
	for _, b := range order {
		p := prob[b]
		if len(b.Succs) == 0 || p == 0 {
			continue
		}
		share := p / float64(len(b.Succs))
		for _, s := range b.Succs {
			if pos[s] > pos[b] { // forward edge only
				prob[s] += share
			}
		}
	}
	for _, b := range order {
		if prob[b] == 0 && b != fn.Entry {
			// Blocks only reachable through back edges (e.g. loop bodies of
			// do-while headers): give them their header's probability.
			prob[b] = 0.5
		}
		counts[b] = prob[b] * math.Pow(5, float64(b.LoopDepth))
	}
	for _, b := range fn.Blocks {
		if _, ok := counts[b]; !ok {
			counts[b] = 0.5 * math.Pow(5, float64(b.LoopDepth))
		}
	}
	return counts
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	s := fmt.Sprintf("RDG %s: %d nodes\n", g.Fn.Name, len(g.Nodes))
	for _, n := range g.Nodes {
		desc := ""
		if n.Instr != nil {
			desc = n.Instr.String()
		} else {
			desc = fmt.Sprintf("param %d", n.ParamIdx)
		}
		cls := [...]string{"flex", "int!", "fp!"}[n.Class]
		s += fmt.Sprintf("  n%-3d %-10s %-5s cnt=%-8.1f %s\n", n.ID, n.Kind, cls, n.Count, desc)
		if len(n.Parents) > 0 {
			s += "        parents:"
			for _, p := range n.Parents {
				s += fmt.Sprintf(" n%d", p)
			}
			s += "\n"
		}
	}
	return s
}
