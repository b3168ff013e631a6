package core

import (
	"fmt"
	"sort"
	"strings"
)

// VerifyPartition is the static partition verifier: an independent check of
// the paper's partitioning invariants, run after every scheme (and, in the
// degradation ladder, after any partition-mutating hook) as a safety net
// against partitioner bugs. It deliberately re-derives everything from the
// graph rather than trusting the partitioner's own bookkeeping.
//
// Invariants checked:
//
//  1. Placement: no load/store address node, call node, return node, or any
//     other pinned-INT node (integer mul/div, parameter dummy, frame
//     address) is assigned to FPa (§5: addresses must form in the integer
//     file; §6.4: calling conventions bind arguments and return values to
//     integer registers). Exception: an address node the static analysis
//     unpinned may sit in FPa, but only with a recorded justification in
//     Graph.Unpinned — and every Unpinned entry must itself be hygienic
//     (an address node, built flexible, with a non-empty reason).
//  2. Copy discipline: every cross-partition register edge is carried by an
//     explicit transfer — an INT-side producer feeding an FPa consumer
//     carries an INT→FPa copy or duplicate; an FPa-side producer feeding an
//     INT consumer carries an FPa→INT copy.
//     2b. Every non-FixedFP parent of a duplicated node is FPa-available,
//     because the duplicate re-executes in FPa (§6.2). A duplicated load
//     value is exempt: it re-loads through the INT-side address.
//  3. FPa→INT copies appear only at actual-parameter positions: producers
//     of call arguments and return values (§6.4) — never as a general
//     escape hatch — and every such copy feeds only call/ret consumers.
//  4. Transfer hygiene: copies/duplicates attach only to INT-side
//     definitions, out-copies only to FPa-side definitions, and FixedFP
//     nodes carry no partition state at all.
//  5. Scheme discipline: the basic scheme moves whole components, so a
//     basic partition must have zero copies, duplicates, and out-copies,
//     and no cross-partition edges whatsoever.
//
// The returned error (nil if the partition is sound) lists every violation
// in deterministic node order.
func VerifyPartition(p *Partition) error {
	if p == nil {
		return nil // conventional compilation: nothing to verify
	}
	v := p.Violations()
	if len(v) == 0 {
		return nil
	}
	const maxShown = 8
	shown := v
	if len(shown) > maxShown {
		shown = shown[:maxShown]
	}
	msg := strings.Join(shown, "; ")
	if len(v) > maxShown {
		msg += fmt.Sprintf("; ... and %d more", len(v)-maxShown)
	}
	return fmt.Errorf("partition verifier: %s (%s): %d violation(s): %s",
		p.G.Fn.Name, p.Scheme, len(v), msg)
}

// Violations returns every paper-invariant violation in the partition, in
// deterministic order (by node ID, then by check). Empty means sound.
func (p *Partition) Violations() []string {
	var out []string
	g := p.G
	bad := func(id NodeID, format string, args ...any) {
		out = append(out, fmt.Sprintf("n%d(%s): %s", id, g.Nodes[id].Kind, fmt.Sprintf(format, args...)))
	}

	if len(p.Assign) != len(g.Nodes) {
		return []string{fmt.Sprintf("assignment covers %d of %d nodes", len(p.Assign), len(g.Nodes))}
	}

	basic := p.Scheme == "basic"
	for _, n := range g.Nodes {
		id := n.ID
		if n.Class == ClassFixedFP {
			// 4. FixedFP nodes live outside the partitioning problem.
			if p.CopyNodes[id] || p.DupNodes[id] || p.OutCopyNodes[id] {
				bad(id, "fixed-FP node carries partition transfer state")
			}
			continue
		}
		inFPa := p.Assign[id] == SubFPa

		// 1. Placement constraints.
		if inFPa {
			switch {
			case n.Kind == KindLoadAddr || n.Kind == KindStoreAddr:
				if g.Unpinned[id] == "" {
					bad(id, "load/store address node assigned to FPa without an unpin justification")
				}
			case n.Kind == KindCall:
				bad(id, "call node assigned to FPa")
			case n.Kind == KindRet:
				bad(id, "return node assigned to FPa")
			case n.Class == ClassPinInt:
				bad(id, "pinned-INT node assigned to FPa")
			}
		}

		// 4. Transfer hygiene.
		if p.CopyNodes[id] && inFPa {
			bad(id, "INT→FPa copy attached to an FPa-side definition")
		}
		if p.DupNodes[id] && inFPa {
			bad(id, "duplicate attached to an FPa-side definition")
		}
		if p.OutCopyNodes[id] && !inFPa {
			bad(id, "FPa→INT copy attached to an INT-side definition")
		}

		// 3. Out-copies only at actual-parameter positions.
		if p.OutCopyNodes[id] && !n.IsActualArg {
			bad(id, "FPa→INT copy at a non-actual-parameter node")
		}

		// 2. Copy discipline on every cross-partition edge.
		for _, c := range n.Children {
			child := g.Nodes[c]
			if child.Class == ClassFixedFP {
				continue
			}
			childFPa := p.Assign[c] == SubFPa
			switch {
			case !inFPa && childFPa:
				if !p.CopyNodes[id] && !p.DupNodes[id] {
					bad(id, "INT value consumed by FPa node n%d without a copy or duplicate", c)
				}
				if basic {
					bad(id, "cross-partition edge to n%d under the basic scheme", c)
				}
			case inFPa && !childFPa:
				if !p.OutCopyNodes[id] {
					bad(id, "FPa value consumed by INT node n%d without an FPa→INT copy", c)
				} else if child.Kind != KindCall && child.Kind != KindRet {
					bad(id, "FPa→INT copy consumed by n%d(%s), not a call or return", c, child.Kind)
				}
				if basic {
					bad(id, "cross-partition edge to n%d under the basic scheme", c)
				}
			}
		}

		// 2b. A duplicate's operands must already be in the FP file.
		if p.DupNodes[id] && n.Kind != KindLoadVal {
			for _, par := range n.Parents {
				if g.Nodes[par].Class != ClassFixedFP && !p.FPaAvailable(par) {
					bad(id, "duplicate's parent n%d is not FPa-available", par)
				}
			}
		}
	}

	// 1b. Unpin hygiene: every recorded unpin must name an address node that
	// was actually built flexible, and must carry a non-empty justification.
	unpinIDs := make([]NodeID, 0, len(g.Unpinned))
	for id := range g.Unpinned {
		unpinIDs = append(unpinIDs, id)
	}
	sort.Slice(unpinIDs, func(i, j int) bool { return unpinIDs[i] < unpinIDs[j] })
	for _, id := range unpinIDs {
		if int(id) >= len(g.Nodes) {
			out = append(out, fmt.Sprintf("n%d: unpin record for a node that does not exist", id))
			continue
		}
		n := g.Nodes[id]
		if n.Kind != KindLoadAddr && n.Kind != KindStoreAddr {
			bad(id, "unpin record on a non-address node")
		}
		if n.Class != ClassFlex {
			bad(id, "unpinned address node not built flexible")
		}
		if g.Unpinned[id] == "" {
			bad(id, "unpin record with an empty justification")
		}
	}

	// 5. Basic-scheme discipline: no transfer machinery at all.
	if basic {
		for _, set := range []struct {
			name  string
			nodes map[NodeID]bool
		}{
			{"INT→FPa copy", p.CopyNodes},
			{"duplicate", p.DupNodes},
			{"FPa→INT copy", p.OutCopyNodes},
		} {
			ids := make([]NodeID, 0, len(set.nodes))
			for id := range set.nodes {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				bad(id, "%s present under the basic scheme", set.name)
			}
		}
	}
	return out
}
