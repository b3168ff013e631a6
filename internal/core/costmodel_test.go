package core_test

import (
	"testing"

	"fpint/internal/core"
)

// TestDuplicationPreferredForCheapChains checks the §6.2 heuristic: a node
// whose backward slice is cheap to replicate (constants, single adds) is
// duplicated rather than copied, because o_dupl < o_copy and the duplicate
// avoids per-iteration communication.
func TestDuplicationPreferredForCheapChains(t *testing.T) {
	// The loop induction variable's update (i = i + 1) has a cheap backward
	// slice; offloading the comparison slice should duplicate it (the
	// paper's Figure 6) or copy it (Figure 5) depending on the constants.
	src := `
int a[100];
int total;
int main() {
	for (int i = 0; i < 100; i++) total += a[i];
	return total;
}
`
	mod, prof := build(t, src)
	fn := mod.Lookup("main")
	g := core.BuildGraph(fn, prof)

	// With a very expensive copy, duplication must win somewhere.
	p := core.AdvancedPartition(g, core.CostParams{OCopy: 50, ODupl: 1.1})
	if err := core.VerifyPartition(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(p.DupNodes) == 0 && len(p.CopyNodes) > 0 {
		t.Errorf("expensive copies chosen over cheap duplication: copies=%d dups=%d",
			len(p.CopyNodes), len(p.DupNodes))
	}
}

// TestParamsNeverDuplicated: a formal parameter only materializes in an
// integer register, so the transfer for a parameter must be a copy.
func TestParamsNeverDuplicated(t *testing.T) {
	src := `
int f(int n) {
	int s = 0;
	for (int i = 0; i < 50; i++) s ^= (s << 1) + n;
	return s;
}
int main() { return f(7) & 65535; }
`
	mod, prof := build(t, src)
	fn := mod.Lookup("f")
	g := core.BuildGraph(fn, prof)
	p := core.AdvancedPartition(g, core.CostParams{OCopy: 4, ODupl: 1.1})
	if err := core.VerifyPartition(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	for id := range p.DupNodes {
		if g.Nodes[id].Kind == core.KindParam {
			t.Errorf("parameter node n%d duplicated", id)
		}
	}
}

// TestLoadValueDuplicationIsReload: duplicating a load value must not drag
// its address computation into FPa (backward slices stop at load values).
func TestLoadValueDuplication(t *testing.T) {
	src := `
int a[64];
int out[64];
int main() {
	int s = 0;
	for (int i = 0; i < 64; i++) {
		int v = a[i];
		out[i] = v + 1;   // store-value use of v
		if (v > 32) s++;  // branch use of v
	}
	return s;
}
`
	mod, prof := build(t, src)
	fn := mod.Lookup("main")
	g := core.BuildGraph(fn, prof)
	p := core.AdvancedPartition(g, core.DefaultCostParams())
	if err := core.VerifyPartition(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// All load/store address nodes stay INT regardless of any transfers.
	for _, n := range g.Nodes {
		if (n.Kind == core.KindLoadAddr || n.Kind == core.KindStoreAddr) && p.InFPa(n.ID) {
			t.Errorf("address node n%d in FPa", n.ID)
		}
	}
}

// TestOutCopiesOnlyFeedCallsAndReturns pins the §6.4 restriction: FPa→INT
// copies exist only for calling-convention positions.
func TestOutCopiesOnlyFeedCallsAndReturns(t *testing.T) {
	src := `
int sink;
int helper(int v) { sink += v; return v ^ 3; }
int main() {
	int s = 0;
	for (int i = 0; i < 40; i++) {
		int x = (i ^ 5) + (i << 2); // cheap FPa-able computation
		s += helper(x & 255);
	}
	return s & 65535;
}
`
	mod, prof := build(t, src)
	for _, fn := range mod.Funcs {
		g := core.BuildGraph(fn, prof)
		p := core.AdvancedPartition(g, core.DefaultCostParams())
		if err := core.VerifyPartition(p); err != nil {
			t.Fatalf("%s: %v", fn.Name, err)
		}
		for id := range p.OutCopyNodes {
			if !g.Nodes[id].IsActualArg {
				t.Errorf("%s: out-copy on non-argument node n%d", fn.Name, id)
			}
		}
	}
}

// TestProbabilisticEstimateUsedWithoutProfile: functions missing from the
// profile fall back to p_B * 5^d_B; deeper loops must get larger counts.
func TestProbabilisticEstimate(t *testing.T) {
	src := `
int a[16];
int cold(int n) {
	int s = 0;
	for (int i = 0; i < n; i++)
		for (int j = 0; j < n; j++)
			s += i*j;
	return s;
}
int main() { return a[0]; }
`
	mod, _ := build(t, src)
	fn := mod.Lookup("cold")
	g := core.BuildGraph(fn, nil) // no profile at all
	var depth0, depth2 float64
	for _, n := range g.Nodes {
		if n.Instr == nil {
			continue
		}
		switch n.Instr.Blk.LoopDepth {
		case 0:
			if n.Count > depth0 {
				depth0 = n.Count
			}
		case 2:
			if n.Count > depth2 {
				depth2 = n.Count
			}
		}
	}
	if depth2 <= depth0 {
		t.Errorf("nested-loop estimate %v not larger than straight-line %v", depth2, depth0)
	}
}

// TestBasicSchemeConditions verifies §5.1's partitioning conditions
// directly: no FPa node may have an INT node in its backward or forward
// slice. An INT node in an FPa node's forward slice is the same as an FPa
// node in that INT node's backward slice, so backward slices check both.
func TestBasicSchemeConditions(t *testing.T) {
	mod, prof := build(t, gccFragment)
	for _, fn := range mod.Funcs {
		g := core.BuildGraph(fn, prof)
		p := core.BasicPartition(g)
		isINT := func(v core.NodeID) bool { return g.Nodes[v].Class != core.ClassFixedFP && !p.InFPa(v) }
		for _, n := range g.Nodes {
			for v := range g.BackwardSlice(n.ID) {
				if p.InFPa(n.ID) && isINT(v) {
					t.Fatalf("%s: FPa node n%d has INT ancestor n%d", fn.Name, n.ID, v)
				}
				if isINT(n.ID) && p.InFPa(v) {
					t.Fatalf("%s: FPa node n%d has INT descendant n%d", fn.Name, v, n.ID)
				}
			}
		}
	}
}
