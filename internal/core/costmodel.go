package core

import "math"

// costModel is the single §6.1/§6.2 pricing path shared by the greedy
// schemes (advanced phase 1/2, the balanced demotion pass), the optimal
// partition oracle, and the fpibench cost-model calibration. It holds the
// per-node copy/duplicate costs (the §6.2 fixpoint prepass) and knows how
// to derive transfer sets and price whole assignments, so every consumer
// computes Profit through exactly the same code and the profit-dominance
// invariant (optimal ≥ advanced ≥ basic) compares like with like.
type costModel struct {
	g      *Graph
	params CostParams

	// copyCost/dupCost per node (§6.2 prepass):
	//
	//	copy_cost(v) = o_copy * n_B(v)
	//	dupl_cost(v) = o_dupl * n_B(v) + Σ_i min(copy_cost(u_i), dupl_cost(u_i))
	//
	// iterated to a fixpoint from dupl_cost = ∞. Load-value nodes have no
	// parent term (their duplicate re-loads through the INT-side address);
	// parameter dummies, calls, returns and jumps cannot be duplicated.
	copyCost []float64
	dupCost  []float64
}

// newCostModel normalizes the parameters (non-positive o_copy selects the
// paper-midpoint defaults, matching the historical AdvancedPartition
// behavior) and runs the §6.2 fixpoint.
func newCostModel(g *Graph, params CostParams) *costModel {
	if params.OCopy <= 0 {
		params = DefaultCostParams()
	}
	cm := &costModel{g: g, params: params}
	n := len(g.Nodes)
	cm.copyCost = make([]float64, n)
	cm.dupCost = make([]float64, n)
	for _, nd := range g.Nodes {
		cm.copyCost[nd.ID] = params.OCopy * nd.Count
		cm.dupCost[nd.ID] = math.Inf(1)
	}
	for iter := 0; iter < 20; iter++ {
		changed := false
		for _, nd := range g.Nodes {
			if !cm.duplicable(nd.ID) {
				continue
			}
			c := params.ODupl * nd.Count
			if nd.Kind != KindLoadVal {
				for _, p := range nd.Parents {
					if !cm.partitionable(p) {
						continue
					}
					c += math.Min(cm.copyCost[p], cm.dupCost[p])
				}
			}
			if c < cm.dupCost[nd.ID]-1e-9 {
				cm.dupCost[nd.ID] = c
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return cm
}

func (cm *costModel) count(v NodeID) float64 { return cm.g.Nodes[v].Count }

func (cm *costModel) partitionable(v NodeID) bool {
	return cm.g.Nodes[v].Class != ClassFixedFP
}

// duplicable reports whether v may be re-executed on the FPa side at all:
// fixed-FP nodes are outside the partitioning problem, and parameter
// dummies, calls, returns and jumps have no FPa re-execution (the value
// only materializes in an integer register).
func (cm *costModel) duplicable(v NodeID) bool {
	nd := cm.g.Nodes[v]
	return nd.Class != ClassFixedFP && nd.Kind != KindParam &&
		nd.Kind != KindCall && nd.Kind != KindRet && nd.Kind != KindJump
}

// transferOverhead is min(copy, dup) — the cheapest way to make v's value
// available in FPa while v executes in INT.
func (cm *costModel) transferOverhead(v NodeID) float64 {
	return math.Min(cm.copyCost[v], cm.dupCost[v])
}

func (cm *costModel) preferDup(v NodeID) bool {
	return cm.dupCost[v] < cm.copyCost[v]
}

// transferSet computes, for an arbitrary assignment (inINT over all nodes;
// FixedFP entries are ignored), the set of INT-side definitions that must
// be made FPa-available: every INT node with an FPa child, closed under
// duplicate operand requirements (a duplicated node's INT parents must
// themselves be transferred). Each needed node becomes a duplicate when
// that is strictly cheaper, a copy otherwise.
func (cm *costModel) transferSet(inINT []bool) (copies, dups map[NodeID]bool) {
	copies = make(map[NodeID]bool)
	dups = make(map[NodeID]bool)
	var work []NodeID
	need := make(map[NodeID]bool)
	add := func(v NodeID) {
		if !need[v] {
			need[v] = true
			work = append(work, v)
		}
	}
	inFPa := func(v NodeID) bool { return cm.partitionable(v) && !inINT[v] }
	for _, n := range cm.g.Nodes {
		if !cm.partitionable(n.ID) || !inINT[n.ID] {
			continue
		}
		for _, c := range n.Children {
			if inFPa(c) {
				add(n.ID)
				break
			}
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if cm.preferDup(v) {
			dups[v] = true
			if cm.g.Nodes[v].Kind != KindLoadVal {
				for _, p := range cm.g.Nodes[v].Parents {
					if cm.partitionable(p) && inINT[p] {
						add(p)
					}
				}
			}
		} else {
			copies[v] = true
		}
	}
	return copies, dups
}

// compPricer prices assignments restricted to one undirected RDG component
// without allocating per call — the oracle's branch-and-bound evaluates
// thousands of leaves per component. Transfer needs never escape an
// undirected component (a transfer node is a parent of an FPa member, hence
// a neighbor), so pricing the component in isolation is exact.
type compPricer struct {
	cm    *costModel
	nodes []NodeID // partitionable members of the component

	// scratch, indexed by NodeID over the whole graph
	need    []bool
	work    []NodeID
	touched []NodeID
}

func newCompPricer(cm *costModel, nodes []NodeID) *compPricer {
	return &compPricer{cm: cm, nodes: nodes, need: make([]bool, len(cm.g.Nodes))}
}

// compPrice is the §6.1 component price breakdown.
type compPrice struct {
	Benefit   float64
	Overhead  float64
	Transfers int // copy/duplicate nodes the assignment needs
}

func (p compPrice) Profit() float64 { return p.Benefit - p.Overhead }

// price returns the §6.1 price of placing exactly the inFPa-marked members
// of the component in FPa (inFPa is indexed by NodeID over the whole graph;
// entries outside the component must be false).
func (cp *compPricer) price(inFPa []bool) compPrice {
	cm := cp.cm
	benefit, overhead := 0.0, 0.0
	cp.work = cp.work[:0]
	cp.touched = cp.touched[:0]
	add := func(v NodeID) {
		if !cp.need[v] {
			cp.need[v] = true
			cp.work = append(cp.work, v)
			cp.touched = append(cp.touched, v)
		}
	}
	for _, id := range cp.nodes {
		if !inFPa[id] {
			continue
		}
		n := cm.g.Nodes[id]
		benefit += n.Count
		if n.IsActualArg {
			overhead += cm.copyCost[id]
		}
		for _, p := range n.Parents {
			if cm.partitionable(p) && !inFPa[p] {
				add(p)
			}
		}
	}
	for i := 0; i < len(cp.work); i++ {
		v := cp.work[i]
		if cm.preferDup(v) {
			overhead += cm.params.ODupl * cm.g.Nodes[v].Count
			if cm.g.Nodes[v].Kind != KindLoadVal {
				for _, p := range cm.g.Nodes[v].Parents {
					if cm.partitionable(p) && !inFPa[p] {
						add(p)
					}
				}
			}
		} else {
			overhead += cm.copyCost[v]
		}
	}
	transfers := len(cp.work)
	for _, v := range cp.touched {
		cp.need[v] = false
	}
	return compPrice{Benefit: benefit, Overhead: overhead, Transfers: transfers}
}
