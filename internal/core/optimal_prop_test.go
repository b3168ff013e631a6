package core

import (
	"math"
	"math/rand"
	"testing"

	"fpint/internal/fperr"
	"fpint/internal/ir"
)

// randomGraph generates a small synthetic RDG: a random DAG over a mix of
// flexible plain/branch/load-value nodes, pinned integer nodes (mul/div
// stand-ins), call nodes, and parameter dummies. Structural conventions
// match BuildGraph: parameter dummies and branches have no incoming /
// outgoing value edges respectively, and IsActualArg marks parents of
// call nodes.
func randomGraph(r *rand.Rand, n int) *Graph {
	g := &Graph{Fn: &ir.Func{Name: "synthetic"}}
	for i := 0; i < n; i++ {
		var kind NodeKind
		var class Class
		switch roll := r.Intn(100); {
		case roll < 50:
			kind, class = KindPlain, ClassFlex
		case roll < 62:
			kind, class = KindBranch, ClassFlex
		case roll < 72:
			kind, class = KindLoadVal, ClassFlex
		case roll < 84:
			kind, class = KindPlain, ClassPinInt // integer mul/div stand-in
		case roll < 94:
			kind, class = KindCall, ClassPinInt
		default:
			kind, class = KindParam, ClassPinInt
		}
		g.Nodes = append(g.Nodes, &Node{
			ID:    NodeID(i),
			Kind:  kind,
			Class: class,
			Count: float64(r.Intn(40)+1) * 0.5,
		})
	}
	for i := 0; i < n; i++ {
		src := g.Nodes[i]
		if src.Kind == KindBranch {
			continue // branches produce no register value
		}
		for j := i + 1; j < n; j++ {
			dst := g.Nodes[j]
			if dst.Kind == KindParam {
				continue // parameter dummies are pure definitions
			}
			if r.Intn(100) < 22 {
				src.Children = append(src.Children, dst.ID)
				dst.Parents = append(dst.Parents, src.ID)
			}
		}
	}
	for _, nd := range g.Nodes {
		for _, c := range nd.Children {
			if k := g.Nodes[c].Kind; k == KindCall || k == KindRet {
				nd.IsActualArg = true
				break
			}
		}
	}
	return g
}

func randomParams(r *rand.Rand) CostParams {
	return CostParams{
		OCopy: 3 + 3*r.Float64(),     // paper range [3, 6]
		ODupl: 1.5 + 1.5*r.Float64(), // paper range [1.5, 3]
	}
}

// legalSet reports whether the FPa set marked in inFPa is legal: every
// member's non-FixedFP child is either in the set or a call/return node.
func legalSet(g *Graph, inFPa []bool) bool {
	for _, nd := range g.Nodes {
		if !inFPa[nd.ID] {
			continue
		}
		for _, c := range nd.Children {
			cn := g.Nodes[c]
			if cn.Class == ClassFixedFP || inFPa[c] {
				continue
			}
			if cn.Kind != KindCall && cn.Kind != KindRet {
				return false
			}
		}
	}
	return true
}

// bruteForceOptimal enumerates every legal FPa subset of the eligible
// nodes and returns the maximum §6.1 profit, priced through the same cost
// model as the oracle.
func bruteForceOptimal(t *testing.T, g *Graph, params CostParams) float64 {
	t.Helper()
	cm := newCostModel(g, params)
	eligible := oracleEligible(g)
	var ids []NodeID
	for _, nd := range g.Nodes {
		if eligible[nd.ID] {
			ids = append(ids, nd.ID)
		}
	}
	if len(ids) > 16 {
		t.Fatalf("brute force over %d eligible nodes is unreasonable", len(ids))
	}
	inFPa := make([]bool, len(g.Nodes))
	inINT := make([]bool, len(g.Nodes))
	best := 0.0
	for mask := 0; mask < 1<<len(ids); mask++ {
		for i, id := range ids {
			inFPa[id] = mask&(1<<i) != 0
		}
		if !legalSet(g, inFPa) {
			continue
		}
		for _, nd := range g.Nodes {
			if nd.Class != ClassFixedFP {
				inINT[nd.ID] = !inFPa[nd.ID]
			}
		}
		benefit, overhead := cm.priceAssignment(inINT)
		if p := benefit - overhead; p > best {
			best = p
		}
	}
	return best
}

// TestOracleMatchesBruteForce is the satellite property test: on small
// random RDGs the branch-and-bound oracle must find exactly the
// brute-force optimum, produce a verifier-clean partition whose priced
// profit equals the reported one, and dominate the greedy profit.
func TestOracleMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := 3 + r.Intn(10) // ≤ 12 offloadable nodes
		g := randomGraph(r, n)
		params := randomParams(r)

		p, report := OptimalPartition(g, params, OracleLimits{})
		if report.Degraded != 0 {
			t.Fatalf("trial %d: oracle degraded on a %d-node graph", trial, n)
		}
		if err := VerifyPartition(p); err != nil {
			t.Fatalf("trial %d: oracle partition fails the verifier: %v", trial, err)
		}

		want := bruteForceOptimal(t, g, params)
		if math.Abs(report.OptimalProfit-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: oracle profit %.12f != brute force %.12f (gap %g)",
				trial, report.OptimalProfit, want, report.OptimalProfit-want)
		}
		if report.OptimalProfit < report.GreedyProfit-1e-9 {
			t.Fatalf("trial %d: oracle profit %.12f below greedy %.12f",
				trial, report.OptimalProfit, report.GreedyProfit)
		}

		// The reported profit must equal the §6.1 price of the partition
		// actually returned.
		cm := newCostModel(g, params)
		inINT := make([]bool, len(g.Nodes))
		for _, nd := range g.Nodes {
			if nd.Class != ClassFixedFP {
				inINT[nd.ID] = p.Assign[nd.ID] == SubINT
			}
		}
		benefit, overhead := cm.priceAssignment(inINT)
		if got := benefit - overhead; math.Abs(got-report.OptimalProfit) > 1e-9 {
			t.Fatalf("trial %d: partition prices to %.12f but report says %.12f",
				trial, got, report.OptimalProfit)
		}
	}
}

// componentSearches builds one fresh branch-and-bound state per undirected
// component of g that has an eligible node, as OptimalPartition does.
func componentSearches(g *Graph, params CostParams) []*bbState {
	cm := newCostModel(g, params)
	eligible := oracleEligible(g)
	comp := undirectedComponents(g)
	nComp := 0
	for _, c := range comp {
		if c >= nComp {
			nComp = c + 1
		}
	}
	members := make([][]NodeID, nComp)
	for _, nd := range g.Nodes {
		if c := comp[nd.ID]; c >= 0 {
			members[c] = append(members[c], nd.ID)
		}
	}
	var out []*bbState
	for c := 0; c < nComp; c++ {
		var vars []NodeID
		for _, id := range members[c] {
			if eligible[id] {
				vars = append(vars, id)
			}
		}
		if len(vars) == 0 {
			continue
		}
		budget := int64(1 << 30)
		out = append(out, newBBState(cm, newCompPricer(cm, members[c]), make([]bool, len(g.Nodes)), vars, &budget))
	}
	return out
}

// walkSearch visits every node of b's search tree below pos without
// pruning — a superset of the nodes dfs visits, whatever its incumbent —
// and returns the best profit among the leaves below (-Inf if none). It
// calls inner with the bound at each inner node and the best leaf below
// it, and leaf with the bound and the priced profit at each leaf.
func walkSearch(b *bbState, pos int, inner func(ub, best float64), leaf func(ub, profit float64)) float64 {
	for pos < len(b.vars) && b.status[pos] != stUndec {
		pos++
	}
	ub := b.upperBound()
	if pos == len(b.vars) {
		for i, id := range b.vars {
			b.scratch[id] = b.status[i] == stIn
		}
		profit := b.pricer.price(b.scratch).Profit()
		leaf(ub, profit)
		for _, id := range b.vars {
			b.scratch[id] = false
		}
		return profit
	}
	best := math.Inf(-1)
	for _, val := range []uint8{stIn, stOut} {
		mark := len(b.trail)
		if b.propagate(pos, val) {
			best = math.Max(best, walkSearch(b, pos+1, inner, leaf))
		}
		b.undo(mark)
	}
	inner(ub, best)
	return best
}

// legalSubsets counts, by enumeration, the legal FPa sets drawn from vars.
func legalSubsets(g *Graph, vars []NodeID) int {
	inFPa := make([]bool, len(g.Nodes))
	n := 0
	for mask := 0; mask < 1<<len(vars); mask++ {
		for i, id := range vars {
			inFPa[id] = mask&(1<<i) != 0
		}
		if legalSet(g, inFPa) {
			n++
		}
	}
	return n
}

// TestOracleBoundAdmissible checks the pruning bound at every node of the
// search tree on small random components: the bound must dominate the
// profit of every legal completion below the node — i.e. the bound never
// prunes the optimum. The tree's leaves must be exactly the legal FPa
// sets, so the best leaf below a node is its best legal completion.
func TestOracleBoundAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	nodes := 0
	for trial := 0; trial < 150; trial++ {
		g := randomGraph(r, 3+r.Intn(10))
		for c, b := range componentSearches(g, randomParams(r)) {
			leaves := 0
			walkSearch(b, 0, func(ub, best float64) {
				nodes++
				if !math.IsInf(best, -1) && ub < best-1e-9 {
					t.Fatalf("trial %d comp %d: upper bound %.12f below a reachable completion %.12f",
						trial, c, ub, best)
				}
			}, func(ub, profit float64) {
				nodes++
				leaves++
				if !legalSet(g, b.scratch) {
					t.Fatalf("trial %d comp %d: search reached an illegal FPa set", trial, c)
				}
				if ub < profit-1e-9 {
					t.Fatalf("trial %d comp %d: upper bound %.12f below the leaf's profit %.12f",
						trial, c, ub, profit)
				}
			})
			if want := legalSubsets(g, b.vars); leaves != want {
				t.Fatalf("trial %d comp %d: search tree has %d leaves, want the %d legal FPa sets",
					trial, c, leaves, want)
			}
		}
	}
	if nodes < 1000 {
		t.Fatalf("only %d search nodes checked", nodes)
	}
}

// TestOracleBoundTightAtLeaves checks that the bound charges each
// mandatory transfer what the pricer charges it: at every leaf whose
// transfer set holds no duplicate, the bound equals the leaf's profit.
// A bound that charged a copied root min(o_copy·n, o_dupl·n) would
// exceed the price there and prune less.
func TestOracleBoundTightAtLeaves(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	checked := 0
	for trial := 0; trial < 150; trial++ {
		g := randomGraph(r, 3+r.Intn(10))
		params := randomParams(r)
		cm := newCostModel(g, params)
		inINT := make([]bool, len(g.Nodes))
		for c, b := range componentSearches(g, params) {
			walkSearch(b, 0, func(float64, float64) {}, func(ub, profit float64) {
				for _, nd := range g.Nodes {
					inINT[nd.ID] = !b.scratch[nd.ID]
				}
				copies, dups := cm.transferSet(inINT)
				if len(dups) > 0 {
					return
				}
				if len(copies) > 0 {
					checked++
				}
				if math.Abs(ub-profit) > 1e-9*(1+math.Abs(profit)) {
					t.Fatalf("trial %d comp %d: bound %.12f at a leaf that prices to %.12f (copies only)",
						trial, c, ub, profit)
				}
			})
		}
	}
	if checked < 100 {
		t.Fatalf("only %d leaves with copies and no duplicates checked", checked)
	}
}

// TestOracleDegradedFallback covers both caps: an over-wide component
// (node-count cap) and an exhausted expansion budget. Both must keep a
// verifier-clean partition whose profit still dominates greedy, and
// surface ClassDegraded through the report.
func TestOracleDegradedFallback(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// A long chain of flexible nodes: one component, 40 eligible nodes.
	g := &Graph{Fn: &ir.Func{Name: "wide"}}
	for i := 0; i < 40; i++ {
		g.Nodes = append(g.Nodes, &Node{ID: NodeID(i), Kind: KindPlain, Class: ClassFlex, Count: float64(i%7) + 1})
		if i > 0 {
			g.Nodes[i-1].Children = append(g.Nodes[i-1].Children, NodeID(i))
			g.Nodes[i].Parents = append(g.Nodes[i].Parents, NodeID(i-1))
		}
	}
	p, report := OptimalPartition(g, DefaultCostParams(), OracleLimits{MaxFlexNodes: 30})
	if report.Degraded != 1 {
		t.Fatalf("want 1 degraded component, got %d", report.Degraded)
	}
	if err := VerifyPartition(p); err != nil {
		t.Fatalf("degraded partition fails the verifier: %v", err)
	}
	if report.OptimalProfit < report.GreedyProfit {
		t.Fatalf("degraded oracle profit %.2f below greedy %.2f", report.OptimalProfit, report.GreedyProfit)
	}
	if err := report.Err(); fperr.ClassOf(err) != fperr.ClassDegraded {
		t.Fatalf("want ClassDegraded from report.Err(), got %v", err)
	}

	// Budget exhaustion on random graphs: never worse than greedy, always
	// verifier-clean, always flagged.
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(r, 12)
		p, report := OptimalPartition(g, DefaultCostParams(), OracleLimits{MaxExpansions: 2})
		if err := VerifyPartition(p); err != nil {
			t.Fatalf("trial %d: budget-capped partition fails the verifier: %v", trial, err)
		}
		if report.OptimalProfit < report.GreedyProfit-1e-9 {
			t.Fatalf("trial %d: capped profit %.12f below greedy %.12f",
				trial, report.OptimalProfit, report.GreedyProfit)
		}
		if len(report.Components) > 0 && report.Degraded > 0 && report.Err() == nil {
			t.Fatalf("trial %d: degraded report returned nil Err", trial)
		}
	}
}
