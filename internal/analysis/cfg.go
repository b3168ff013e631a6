// Package analysis is a reusable static-analysis framework over the IR:
// CFG construction (reverse postorder and unreachable blocks), an
// intraprocedural flow-insensitive may-alias/address-taken analysis
// partitioned by base object, and a lattice-based value-range analysis
// (constants + intervals with widening).
//
// The analyses exist to *justify* compiler decisions, not to change
// semantics: the partitioner consults them to unpin load/store address
// nodes whose addresses are provably well-behaved array accesses (see
// FuncFacts.SafeAddr and core.AddrOracle), and the fpilint driver turns the
// same facts into diagnostics (dead stores, unreachable blocks, division by
// zero and out-of-bounds candidates).
package analysis

import (
	"sort"

	"fpint/internal/ir"
)

// CFG is the control-flow view of one function: the reachable blocks in
// reverse postorder and the blocks the entry cannot reach at all.
type CFG struct {
	// Blocks are the reachable blocks in reverse postorder (entry first).
	Blocks []*ir.Block

	// Unreachable lists blocks the entry cannot reach, in block-ID order.
	Unreachable []*ir.Block
}

// BuildCFG computes the CFG of fn: the reverse postorder of the reachable
// blocks and the unreachable set.
func BuildCFG(fn *ir.Func) *CFG {
	c := &CFG{Blocks: fn.ReversePostorder()}
	reached := make([]bool, fn.NumBlockIDs())
	for _, b := range c.Blocks {
		reached[b.ID] = true
	}
	for _, b := range fn.Blocks {
		if !reached[b.ID] {
			c.Unreachable = append(c.Unreachable, b)
		}
	}
	sort.Slice(c.Unreachable, func(i, j int) bool { return c.Unreachable[i].ID < c.Unreachable[j].ID })
	return c
}
