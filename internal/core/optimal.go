package core

import (
	"fmt"
	"math"
	"sort"

	"fpint/internal/fperr"
)

// This file implements the exact partition oracle: a branch-and-bound
// search for the §6.1-optimal FPa assignment, run independently per
// undirected RDG component. It exists to measure how much offload profit
// the paper's greedy schemes leave on the table (ROADMAP item 4) — the
// oracle is a compile-time analysis, priced through the same cost model as
// the greedy schemes, and its result is re-checked by the static partition
// verifier like any other scheme.
//
// Search space. A set S of nodes may execute in FPa iff
//
//  1. every member is flexible (pinned classes stay in INT; unpinned
//     address nodes are flexible and legal candidates), and
//  2. for every v ∈ S, every non-FixedFP child of v is either in S or a
//     call/return node (the §6.4 out-copy is the only legal FPa→INT edge).
//
// Condition 2 makes legal assignments exactly the forward-closed subsets
// of the *eligible* set: flexible nodes outside the backward closure of
// "has a pinned non-call/ret child". Values can always be transferred
// INT→FPa (copy/duplicate), so parents constrain nothing; children must
// follow their parents into FPa or be call/ret consumers of an out-copy.
//
// The search branches v∈S / v∉S with unit propagation over that closure
// (in ⇒ flexible children in; out ⇒ eligible parents out), prunes with an
// admissible profit upper bound, and seeds its incumbent from the advanced
// scheme's assignment — so the oracle's profit dominates the greedy result
// by construction, even when a cap degrades it.

// OracleLimits caps the exact search. Zero values select the defaults.
type OracleLimits struct {
	// MaxFlexNodes is the per-component cap on branch-and-bound variables
	// (eligible nodes). Components above the cap fall back to the greedy
	// assignment and mark the report degraded.
	MaxFlexNodes int
	// MaxExpansions is the per-function budget of branch expansions shared
	// by all components. Exhausting it keeps the best incumbent found so
	// far (never worse than greedy) and marks the report degraded.
	MaxExpansions int64
}

// DefaultOracleLimits bounds the search to comfortably handle every
// testdata program and benchmark workload exactly (the largest real
// components, ijpeg's 50-variable DCT kernels, are settled by the bound at
// the root, and the costliest, ijpeg main's 29-variable component, takes
// 44 expansions — unit propagation and the profit bound do the work) while
// the expansion budget keeps adversarial fuzzer graphs from stalling a
// compile.
func DefaultOracleLimits() OracleLimits {
	return OracleLimits{MaxFlexNodes: 64, MaxExpansions: 1 << 20}
}

func (l OracleLimits) withDefaults() OracleLimits {
	d := DefaultOracleLimits()
	if l.MaxFlexNodes <= 0 {
		l.MaxFlexNodes = d.MaxFlexNodes
	}
	if l.MaxExpansions <= 0 {
		l.MaxExpansions = d.MaxExpansions
	}
	return l
}

// ComponentGap is the oracle's verdict on one undirected RDG component
// that had at least one eligible node: the greedy (advanced) profit, the
// optimal profit, and whether the search was exact.
type ComponentGap struct {
	Component     int     // stable index (ordered by lowest member node)
	MinNode       NodeID  // lowest-numbered member node
	FlexNodes     int     // eligible (branchable) nodes
	GreedyProfit  float64 // §6.1 profit of the advanced assignment, restricted to this component
	OptimalProfit float64 // profit of the oracle assignment
	Exact         bool    // true if the search completed within the limits
	Expansions    int64   // branch expansions spent on this component
	Reason        string  // "exact" or the degradation cause
}

// Gap is the profit the greedy scheme left on the table in this component.
func (c ComponentGap) Gap() float64 { return c.OptimalProfit - c.GreedyProfit }

// OracleReport summarizes the oracle run over one function.
type OracleReport struct {
	Fn         string
	Components []ComponentGap
	// GreedyProfit / OptimalProfit are the function totals over the
	// reported components (both priced through the shared cost model).
	GreedyProfit  float64
	OptimalProfit float64
	Expansions    int64
	// Degraded counts components that fell back to the greedy result
	// (node-count cap or exhausted expansion budget).
	Degraded int
}

// Gap is the total profit left on the table by the greedy scheme.
func (r *OracleReport) Gap() float64 { return r.OptimalProfit - r.GreedyProfit }

// Err returns a ClassDegraded error if any component fell back to the
// greedy result, nil otherwise. The partition is still valid and never
// worse than the greedy scheme — the error only reports that optimality
// is not certified.
func (r *OracleReport) Err() error {
	if r == nil || r.Degraded == 0 {
		return nil
	}
	return fperr.New(fperr.ClassDegraded,
		"partition oracle degraded on %s: %d component(s) fell back to the greedy result",
		r.Fn, r.Degraded)
}

// OptimalPartition computes the exact §6.1-optimal partition of g under
// params, within limits (zero limits select DefaultOracleLimits). The
// returned partition uses scheme name "optimal" and carries a full audit
// trail; the report records the per-component greedy-vs-optimal gaps.
func OptimalPartition(g *Graph, params CostParams, limits OracleLimits) (*Partition, *OracleReport) {
	limits = limits.withDefaults()
	cm := newCostModel(g, params)
	adv := advancedPartition(cm)

	comp := undirectedComponents(g)
	eligible := oracleEligible(g)

	// Collect partitionable members per component, in node order.
	nComp := 0
	for _, c := range comp {
		if c >= nComp {
			nComp = c + 1
		}
	}
	members := make([][]NodeID, nComp)
	for _, n := range g.Nodes {
		if c := comp[n.ID]; c >= 0 {
			members[c] = append(members[c], n.ID)
		}
	}

	report := &OracleReport{Fn: g.Fn.Name}
	budget := limits.MaxExpansions
	inFPa := make([]bool, len(g.Nodes))   // final assignment, filled per component
	scratch := make([]bool, len(g.Nodes)) // per-component pricing scratch

	for c := 0; c < nComp; c++ {
		flex := 0
		for _, id := range members[c] {
			if eligible[id] {
				flex++
			}
		}
		if flex == 0 {
			continue // nothing offloadable; greedy has it all-INT too
		}
		pricer := newCompPricer(cm, members[c])

		// Greedy profit: the advanced assignment restricted to this
		// component, priced through the same path as the oracle.
		var advFPa []NodeID
		for _, id := range members[c] {
			if adv.Assign[id] == SubFPa {
				scratch[id] = true
				advFPa = append(advFPa, id)
			}
		}
		greedy := pricer.price(scratch).Profit()
		for _, id := range advFPa {
			scratch[id] = false
		}

		gap := ComponentGap{
			MinNode:      members[c][0],
			FlexNodes:    flex,
			GreedyProfit: greedy,
		}

		sol := runBB(cm, pricer, members[c], eligible, scratch, limits, &budget, greedy, advFPa)
		gap.OptimalProfit = sol.profit
		gap.Exact = sol.exact
		gap.Expansions = sol.expansions
		gap.Reason = sol.reason
		if !sol.exact {
			report.Degraded++
		}
		for _, id := range sol.fpa {
			inFPa[id] = true
		}
		for _, id := range members[c] {
			scratch[id] = false
		}
		report.Expansions += sol.expansions
		report.GreedyProfit += gap.GreedyProfit
		report.OptimalProfit += gap.OptimalProfit
		report.Components = append(report.Components, gap)
	}
	sort.Slice(report.Components, func(i, j int) bool {
		return report.Components[i].MinNode < report.Components[j].MinNode
	})
	for i := range report.Components {
		report.Components[i].Component = i
	}

	return assembleOptimal(cm, inFPa, report), report
}

// oracleEligible marks the flexible nodes that may ever execute in FPa:
// the complement, within the flexible nodes, of the backward closure of
// "has a pinned child that is not a call/return". This is the oracle's
// analogue of the advanced scheme's hard-root INT slices.
func oracleEligible(g *Graph) []bool {
	eligible := make([]bool, len(g.Nodes))
	var stack []NodeID
	for _, n := range g.Nodes {
		if n.Class != ClassFlex {
			continue
		}
		eligible[n.ID] = true
		for _, c := range n.Children {
			cn := g.Nodes[c]
			if cn.Class == ClassPinInt && cn.Kind != KindCall && cn.Kind != KindRet {
				eligible[n.ID] = false
				stack = append(stack, n.ID)
				break
			}
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Nodes[v].Parents {
			if eligible[p] {
				eligible[p] = false
				stack = append(stack, p)
			}
		}
	}
	return eligible
}

// solution is the outcome of solving one component.
type solution struct {
	fpa        []NodeID
	profit     float64
	exact      bool
	expansions int64
	reason     string
}

// bbState is one component's branch-and-bound search.
type bbState struct {
	cm      *costModel
	pricer  *compPricer
	scratch []bool

	vars  []NodeID // eligible nodes, branch order: count desc, ID asc
	index []int    // NodeID -> var index, -1 otherwise (full-graph slice)

	// flexChildren/flexParents are adjacency among vars (var indices).
	flexChildren [][]int
	flexParents  [][]int

	// rootCands are potential mandatory-transfer roots: partitionable
	// parents of vars. varChildren[i] lists root candidate i's children
	// that are vars.
	rootCands   []NodeID
	varChildren [][]int
	// charge[i] is what compPricer.price charges root candidate i once it
	// is in the transfer set: o_dupl·n when it prefers duplication (the
	// parents a duplicate needs are charged apart), copy_cost otherwise.
	charge []float64

	term  []float64 // per var: count − (actual-arg ? copyCost : 0)
	bonus []float64 // per var: max(0, term)

	status []uint8 // stUndec / stIn / stOut per var
	trail  []int   // var indices whose status was set, for undo

	best       float64
	bestSet    []bool // per var
	expansions int64
	budget     *int64
	exhausted  bool
}

const (
	stUndec = iota
	stIn
	stOut
)

// runBB finds the best legal FPa subset of one component. The incumbent
// starts at max(greedy, empty), so the result never falls below the
// advanced scheme even when a cap degrades the search.
func runBB(cm *costModel, pricer *compPricer, members []NodeID, eligible []bool,
	scratch []bool, limits OracleLimits, budget *int64, greedy float64, advFPa []NodeID) solution {

	var vars []NodeID
	for _, id := range members {
		if eligible[id] {
			vars = append(vars, id)
		}
	}
	capped := len(vars) > limits.MaxFlexNodes
	if capped || *budget <= 0 {
		reason := fmt.Sprintf("capped: %d eligible nodes exceed the %d-node limit; greedy result kept",
			len(vars), limits.MaxFlexNodes)
		if !capped {
			reason = "expansion budget exhausted before the search started; greedy result kept"
		}
		return solution{fpa: advFPa, profit: greedy, reason: reason}
	}

	b := newBBState(cm, pricer, scratch, vars, budget)

	// Incumbent: the better of the empty assignment and the greedy result
	// (its assignment is recovered below if the search never beats it).
	// Strict-improvement updates keep the search deterministic.
	b.best = math.Max(0, greedy)
	b.dfs(0)

	exact := !b.exhausted
	reason := "exact"
	if !exact {
		reason = fmt.Sprintf("expansion budget exhausted after %d expansions; best incumbent kept", b.expansions)
	}

	// Materialize the winning assignment. If the search never beat the
	// greedy profit, return the greedy assignment itself (profit equal or
	// better by construction of the incumbent).
	if b.best <= greedy {
		return solution{fpa: advFPa, profit: greedy, exact: exact, expansions: b.expansions, reason: reason}
	}
	var fpa []NodeID
	for i, id := range b.vars {
		if b.bestSet[i] {
			fpa = append(fpa, id)
		}
	}
	sort.Slice(fpa, func(i, j int) bool { return fpa[i] < fpa[j] })
	return solution{fpa: fpa, profit: b.best, exact: exact, expansions: b.expansions, reason: reason}
}

// newBBState builds the search state over the given eligible nodes:
// branch order (count desc, ID asc), adjacency among variables, the
// mandatory-transfer root candidates, and the per-variable bound terms.
func newBBState(cm *costModel, pricer *compPricer, scratch []bool, vars []NodeID, budget *int64) *bbState {
	b := &bbState{
		cm: cm, pricer: pricer, scratch: scratch,
		vars: vars, budget: budget,
	}
	sort.Slice(b.vars, func(i, j int) bool {
		ni, nj := cm.g.Nodes[b.vars[i]], cm.g.Nodes[b.vars[j]]
		if ni.Count != nj.Count {
			return ni.Count > nj.Count
		}
		return ni.ID < nj.ID
	})
	b.index = make([]int, len(cm.g.Nodes))
	for i := range b.index {
		b.index[i] = -1
	}
	for i, id := range b.vars {
		b.index[id] = i
	}
	n := len(b.vars)
	b.flexChildren = make([][]int, n)
	b.flexParents = make([][]int, n)
	b.term = make([]float64, n)
	b.bonus = make([]float64, n)
	b.status = make([]uint8, n)
	b.bestSet = make([]bool, n)
	rootIdx := make(map[NodeID]int)
	for i, id := range b.vars {
		nd := cm.g.Nodes[id]
		b.term[i] = nd.Count
		if nd.IsActualArg {
			b.term[i] -= cm.copyCost[id]
		}
		b.bonus[i] = math.Max(0, b.term[i])
		for _, ch := range nd.Children {
			if j := b.index[ch]; j >= 0 {
				b.flexChildren[i] = append(b.flexChildren[i], j)
			}
		}
		for _, p := range nd.Parents {
			if j := b.index[p]; j >= 0 {
				b.flexParents[i] = append(b.flexParents[i], j)
			}
			if !cm.partitionable(p) {
				continue
			}
			ri, ok := rootIdx[p]
			if !ok {
				ri = len(b.rootCands)
				rootIdx[p] = ri
				b.rootCands = append(b.rootCands, p)
				b.varChildren = append(b.varChildren, nil)
				coef := cm.copyCost[p]
				if cm.preferDup(p) {
					coef = cm.params.ODupl * cm.count(p)
				}
				b.charge = append(b.charge, coef)
			}
			b.varChildren[ri] = append(b.varChildren[ri], i)
		}
	}
	return b
}

// dfs explores assignments for vars[pos:] given the propagated statuses.
func (b *bbState) dfs(pos int) {
	if b.exhausted {
		return
	}
	for pos < len(b.vars) && b.status[pos] != stUndec {
		pos++
	}
	if pos == len(b.vars) {
		b.evalLeaf()
		return
	}
	if b.upperBound() <= b.best {
		return
	}
	b.expansions++
	*b.budget -= 1
	if *b.budget <= 0 {
		b.exhausted = true
		return
	}

	mark := len(b.trail)
	if b.propagate(pos, stIn) {
		b.dfs(pos + 1)
	}
	b.undo(mark)
	if b.exhausted {
		return
	}
	mark = len(b.trail)
	if b.propagate(pos, stOut) {
		b.dfs(pos + 1)
	}
	b.undo(mark)
}

// propagate sets vars[i] to val and closes over the legality constraints:
// in ⇒ all flexible children in; out ⇒ all eligible parents out. Returns
// false on contradiction (caller undoes to its mark).
func (b *bbState) propagate(i int, val uint8) bool {
	b.status[i] = val
	b.trail = append(b.trail, i)
	stack := []int{i}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b.status[v] == stIn {
			for _, c := range b.flexChildren[v] {
				switch b.status[c] {
				case stOut:
					return false
				case stUndec:
					b.status[c] = stIn
					b.trail = append(b.trail, c)
					stack = append(stack, c)
				}
			}
		} else {
			for _, p := range b.flexParents[v] {
				switch b.status[p] {
				case stIn:
					return false
				case stUndec:
					b.status[p] = stOut
					b.trail = append(b.trail, p)
					stack = append(stack, p)
				}
			}
		}
	}
	return true
}

func (b *bbState) undo(mark int) {
	for len(b.trail) > mark {
		i := b.trail[len(b.trail)-1]
		b.trail = b.trail[:len(b.trail)-1]
		b.status[i] = stUndec
	}
}

// upperBound is an admissible bound on the profit of any completion of the
// current partial assignment:
//
//	Σ_In (count − actArgCost) + Σ_Undec max(0, count − actArgCost)
//	  − Σ_{u definitely-INT with an In child} charge(u)
//
// where charge(u) is o_dupl·n(u) if u prefers duplication and copy_cost(u)
// otherwise, the price compPricer.price charges u. The In term is exact;
// every undecided node contributes at most its bonus (joining FPa adds
// count − actArgCost minus non-negative transfer costs; staying INT adds at
// most 0). Every definitely-INT parent of an In node is in the transfer set
// of every completion and is charged exactly charge(u) there, once; the
// rest of the set costs ≥ 0. So subtracting those charges is safe, and at
// a leaf whose transfer set holds no duplicate the bound equals the price.
func (b *bbState) upperBound() float64 {
	ub := 0.0
	for i := range b.vars {
		switch b.status[i] {
		case stIn:
			ub += b.term[i]
		case stUndec:
			ub += b.bonus[i]
		}
	}
	for ri, u := range b.rootCands {
		if j := b.index[u]; j >= 0 && b.status[j] != stOut {
			continue // eligible and not yet decided-out: not definitely INT
		}
		for _, ci := range b.varChildren[ri] {
			if b.status[ci] == stIn {
				ub -= b.charge[ri]
				break
			}
		}
	}
	return ub
}

// evalLeaf prices the fully-decided assignment and updates the incumbent
// on strict improvement.
func (b *bbState) evalLeaf() {
	for i, id := range b.vars {
		b.scratch[id] = b.status[i] == stIn
	}
	profit := b.pricer.price(b.scratch).Profit()
	for _, id := range b.vars {
		b.scratch[id] = false
	}
	if profit > b.best {
		b.best = profit
		for i := range b.vars {
			b.bestSet[i] = b.status[i] == stIn
		}
	}
}

// assembleOptimal packages the oracle assignment as a Partition with
// scheme "optimal", transfer sets from the shared cost model, and a full
// audit trail (one record per reported component, degradations in Notes).
func assembleOptimal(cm *costModel, inFPa []bool, report *OracleReport) *Partition {
	g := cm.g
	p := newPartition(g, "optimal")
	inINT := make([]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Class == ClassFixedFP {
			continue
		}
		if inFPa[n.ID] {
			p.Assign[n.ID] = SubFPa
		} else {
			p.Assign[n.ID] = SubINT
			inINT[n.ID] = true
		}
	}
	copies, dups := cm.transferSet(inINT)
	p.CopyNodes = copies
	p.DupNodes = dups
	for _, n := range g.Nodes {
		if n.Class != ClassFixedFP && inFPa[n.ID] && n.IsActualArg {
			p.OutCopyNodes[n.ID] = true
		}
	}

	audit := &Audit{Fn: g.Fn.Name, Scheme: "optimal"}
	comp := undirectedComponents(g)
	members := make(map[int][]NodeID)
	for _, n := range g.Nodes {
		if c := comp[n.ID]; c >= 0 {
			members[c] = append(members[c], n.ID)
		}
	}
	scratch := make([]bool, len(g.Nodes))
	for _, gp := range report.Components {
		ms := members[comp[gp.MinNode]]
		pricer := newCompPricer(cm, ms)
		fpaCount := 0
		for _, id := range ms {
			scratch[id] = inFPa[id]
			if inFPa[id] {
				fpaCount++
			}
		}
		price := pricer.price(scratch)
		for _, id := range ms {
			scratch[id] = false
		}
		d := ComponentDecision{
			MinNode:   gp.MinNode,
			Nodes:     fpaCount,
			Transfers: price.Transfers,
			Weight:    price.Benefit,
			Benefit:   price.Benefit,
			Overhead:  price.Overhead,
			Profit:    price.Profit(),
			Accepted:  fpaCount > 0,
		}
		switch {
		case !gp.Exact:
			d.Reason = "oracle degraded: " + gp.Reason
		case fpaCount > 0:
			d.Reason = fmt.Sprintf("optimal: exact search (gap over greedy %+.1f)", gp.Gap())
		default:
			d.Reason = "optimal: no profitable FPa subset exists"
		}
		audit.Components = append(audit.Components, d)
	}
	audit.Components = sortComponents(audit.Components)
	if report.Degraded > 0 {
		audit.Notes = append(audit.Notes, fmt.Sprintf(
			"oracle degraded: %d component(s) fell back to the greedy result", report.Degraded))
	}
	if cm.params.Provenance != "" {
		audit.Notes = append(audit.Notes, "cost model: "+cm.params.Provenance)
	}
	p.Audit = audit
	attachUnpins(p)
	return p
}
