package core_test

import (
	"strings"
	"testing"

	"fpint/internal/core"
)

// partitionAll builds every function's RDG and advanced partition.
func partitionAll(t *testing.T, src string) map[string]*core.Partition {
	t.Helper()
	mod, prof := build(t, src)
	parts := make(map[string]*core.Partition)
	for _, fn := range mod.Funcs {
		g := core.BuildGraph(fn, prof)
		parts[fn.Name] = core.AdvancedPartition(g, core.CostParams{})
	}
	return parts
}

func TestVerifyAcceptsSoundPartitions(t *testing.T) {
	mod, prof := build(t, gccFragment)
	for _, fn := range mod.Funcs {
		g := core.BuildGraph(fn, prof)
		for name, p := range map[string]*core.Partition{
			"basic":    core.BasicPartition(g),
			"advanced": core.AdvancedPartition(g, core.CostParams{}),
			"balanced": core.BalancedPartition(g, core.CostParams{}, 0.5),
		} {
			if err := core.VerifyPartition(p); err != nil {
				t.Errorf("%s/%s: sound partition rejected: %v", fn.Name, name, err)
			}
		}
	}
	if err := core.VerifyPartition(nil); err != nil {
		t.Errorf("nil (conventional) partition rejected: %v", err)
	}
}

func TestVerifyCatchesPinnedNodeInFPa(t *testing.T) {
	for _, p := range partitionAll(t, gccFragment) {
		var pinned *core.Node
		for _, n := range p.G.Nodes {
			if n.Class == core.ClassPinInt {
				pinned = n
				break
			}
		}
		if pinned == nil {
			continue
		}
		p.Assign[pinned.ID] = core.SubFPa
		err := core.VerifyPartition(p)
		if err == nil {
			t.Fatalf("pinned node n%d (%s) in FPa not caught", pinned.ID, pinned.Kind)
		}
		if !strings.Contains(err.Error(), "FPa") {
			t.Fatalf("unhelpful verifier message: %v", err)
		}
		return
	}
	t.Fatal("no pinned node found in any function")
}

func TestVerifyCatchesMissingCopy(t *testing.T) {
	// Strip a copy/dup from an INT→FPa boundary: the cross-partition edge
	// is then uncarried and must be flagged.
	for _, p := range partitionAll(t, gccFragment) {
		for id := range p.CopyNodes {
			delete(p.CopyNodes, id)
			if err := core.VerifyPartition(p); err == nil {
				t.Fatal("removed INT→FPa copy not caught")
			}
			return
		}
		for id := range p.DupNodes {
			delete(p.DupNodes, id)
			if err := core.VerifyPartition(p); err == nil {
				t.Fatal("removed duplicate not caught")
			}
			return
		}
	}
	t.Skip("advanced partition produced no copies or duplicates on this input")
}

func TestVerifyCatchesFlippedFlexNode(t *testing.T) {
	// Flip a single flex node across the boundary without adjusting any
	// transfer: some incident edge must become uncarried. This is exactly
	// the InjectFlip fault the differential fuzzer plants.
	for _, p := range partitionAll(t, gccFragment) {
		for _, n := range p.G.Nodes {
			if n.Class != core.ClassFlex || len(n.Parents)+len(n.Children) == 0 {
				continue
			}
			if p.CopyNodes[n.ID] || p.DupNodes[n.ID] || p.OutCopyNodes[n.ID] {
				continue
			}
			if p.Assign[n.ID] == core.SubINT {
				p.Assign[n.ID] = core.SubFPa
			} else {
				p.Assign[n.ID] = core.SubINT
			}
			// Not every single flip breaks an invariant (an isolated node
			// can move freely), but a connected one with unprepared
			// neighbors must trip the copy discipline.
			hasCross := false
			for _, par := range n.Parents {
				if p.G.Nodes[par].Class != core.ClassFixedFP &&
					p.Assign[par] != p.Assign[n.ID] && !p.FPaAvailable(par) && !p.OutCopyNodes[par] {
					hasCross = true
				}
			}
			for _, c := range n.Children {
				if p.G.Nodes[c].Class != core.ClassFixedFP && p.Assign[c] != p.Assign[n.ID] {
					hasCross = true
				}
			}
			if !hasCross {
				// Undo and keep looking for a flip that matters.
				if p.Assign[n.ID] == core.SubINT {
					p.Assign[n.ID] = core.SubFPa
				} else {
					p.Assign[n.ID] = core.SubINT
				}
				continue
			}
			if err := core.VerifyPartition(p); err == nil {
				t.Fatalf("flipped flex node n%d not caught", n.ID)
			}
			return
		}
	}
	t.Fatal("no flippable flex node found")
}

// TestVerifyCatchesDupWithUnavailableParent: a duplicate re-executes in FPa
// on FPa copies of its operands, so marking an INT-side node duplicated
// while one of its parents has no FPa copy must fail verification. Load
// values are exempt (their duplicate re-loads through the INT address), so
// the planted duplicate is any other flex node.
func TestVerifyCatchesDupWithUnavailableParent(t *testing.T) {
	for _, p := range partitionAll(t, gccFragment) {
		for _, n := range p.G.Nodes {
			if n.Class != core.ClassFlex || n.Kind == core.KindLoadVal ||
				p.Assign[n.ID] != core.SubINT || p.DupNodes[n.ID] {
				continue
			}
			for _, par := range n.Parents {
				if p.G.Nodes[par].Class == core.ClassFixedFP || p.FPaAvailable(par) {
					continue
				}
				p.DupNodes[n.ID] = true
				err := core.VerifyPartition(p)
				if err == nil {
					t.Fatalf("%s: duplicated n%d with INT-only parent n%d not caught", p.G.Fn.Name, n.ID, par)
				}
				if !strings.Contains(err.Error(), "not FPa-available") {
					t.Fatalf("unhelpful verifier message: %v", err)
				}
				return
			}
		}
	}
	t.Fatal("no INT-side flex node with an INT-only parent found")
}

func TestVerifyCatchesOutCopyAtNonActualArg(t *testing.T) {
	for _, p := range partitionAll(t, gccFragment) {
		for _, n := range p.G.Nodes {
			if n.Class != core.ClassFlex || p.Assign[n.ID] != core.SubFPa || n.IsActualArg {
				continue
			}
			p.OutCopyNodes[n.ID] = true
			if err := core.VerifyPartition(p); err == nil {
				t.Fatal("out-copy at non-actual-parameter node not caught")
			}
			return
		}
	}
	t.Skip("no FPa-resident non-actual-arg node on this input")
}

func TestVerifyCatchesBasicSchemeTransfers(t *testing.T) {
	mod, prof := build(t, gccFragment)
	for _, fn := range mod.Funcs {
		g := core.BuildGraph(fn, prof)
		p := core.BasicPartition(g)
		for _, n := range g.Nodes {
			if n.Class == core.ClassFlex && p.Assign[n.ID] == core.SubINT {
				p.CopyNodes[n.ID] = true
				if err := core.VerifyPartition(p); err == nil {
					t.Fatal("copy under the basic scheme not caught")
				}
				return
			}
		}
	}
	t.Fatal("no INT-side flex node found")
}

func TestViolationsDeterministic(t *testing.T) {
	mut := func() *core.Partition {
		p := partitionAll(t, gccFragment)["invalidate_for_call"]
		for _, n := range p.G.Nodes {
			if n.Class == core.ClassPinInt {
				p.Assign[n.ID] = core.SubFPa // every pinned node: many violations
			}
		}
		return p
	}
	a, b := mut().Violations(), mut().Violations()
	if len(a) == 0 {
		t.Fatal("expected violations")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("violation lists differ across identical runs:\n%v\nvs\n%v", a, b)
	}
}
