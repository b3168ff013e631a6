package core

// Computational slices (§3). Because load/store nodes are split and the two
// halves share no edge, backward slices stop at load-value nodes, exactly as
// the paper defines.

// BackwardSlice returns the set of nodes from which any node in roots can be
// reached (including the roots themselves).
func (g *Graph) BackwardSlice(roots ...NodeID) map[NodeID]bool {
	out := make(map[NodeID]bool)
	stack := append([]NodeID(nil), roots...)
	for _, r := range roots {
		out[r] = true
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Nodes[n].Parents {
			if !out[p] {
				out[p] = true
				stack = append(stack, p)
			}
		}
	}
	return out
}

// LdStSlice returns the LdSt slice: the union of the backward slices of all
// load/store address nodes (§3). The paper observes this is close to 50% of
// dynamic instructions for integer codes.
func (g *Graph) LdStSlice() map[NodeID]bool {
	var roots []NodeID
	for _, n := range g.Nodes {
		if n.Kind == KindLoadAddr || n.Kind == KindStoreAddr {
			roots = append(roots, n.ID)
		}
	}
	return g.BackwardSlice(roots...)
}

// StoreValueSlice returns the union of backward slices of all store value
// nodes.
func (g *Graph) StoreValueSlice() map[NodeID]bool {
	var roots []NodeID
	for _, n := range g.Nodes {
		if n.Kind == KindStoreVal && n.Class != ClassFixedFP {
			roots = append(roots, n.ID)
		}
	}
	return g.BackwardSlice(roots...)
}

// SliceStats summarizes the dynamic weight of the computational slices,
// using the graph's execution-count estimates.
type SliceStats struct {
	TotalWeight    float64 // Σ count over all non-FixedFP nodes (split nodes count once)
	LdStWeight     float64 // dynamic weight of the LdSt slice
	BranchWeight   float64 // dynamic weight of the union of branch slices
	StoreValWeight float64 // dynamic weight of the union of store-value slices
}

// ComputeSliceStats measures slice weights. Split load/store instructions
// contribute their count once (per dynamic instruction, not per node).
func (g *Graph) ComputeSliceStats() SliceStats {
	var st SliceStats
	// Weight per *instruction*: attribute a split instruction to the LdSt
	// slice (its address half always belongs there).
	inLdSt := g.LdStSlice()
	var brRoots []NodeID
	for _, n := range g.Nodes {
		if n.Kind == KindBranch {
			brRoots = append(brRoots, n.ID)
		}
	}
	inBr := g.BackwardSlice(brRoots...)
	inSV := g.StoreValueSlice()

	counted := make(map[int]bool) // instruction IDs already counted
	for _, n := range g.Nodes {
		if n.Class == ClassFixedFP || n.Instr == nil {
			continue
		}
		if counted[n.Instr.ID] {
			continue
		}
		counted[n.Instr.ID] = true
		st.TotalWeight += n.Count
	}
	countedSlice := func(in map[NodeID]bool) float64 {
		seen := make(map[int]bool)
		var w float64
		for id := range in {
			n := g.Nodes[id]
			if n.Instr == nil || n.Class == ClassFixedFP || seen[n.Instr.ID] {
				continue
			}
			seen[n.Instr.ID] = true
			w += n.Count
		}
		return w
	}
	st.LdStWeight = countedSlice(inLdSt)
	st.BranchWeight = countedSlice(inBr)
	st.StoreValWeight = countedSlice(inSV)
	return st
}
