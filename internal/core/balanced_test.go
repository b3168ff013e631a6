package core_test

import (
	"testing"

	"fpint/internal/core"
)

// memFreeSrc is the §6.6 pathological case: a function with no memory
// access that the greedy schemes move to FPa wholesale.
const memFreeSrc = `
int seed;
int churn() {
	int s = seed;
	int r = 0;
	for (int i = 0; i < 100; i++) {
		s = (s ^ (s << 3)) + 77;
		r = r ^ (s >> 5) ^ (r << 1);
	}
	seed = s;
	return r & 65535;
}
int main() {
	seed = 5;
	int acc = 0;
	for (int k = 0; k < 10; k++) acc ^= churn();
	return acc;
}
`

func fpaFraction(g *core.Graph, p *core.Partition) float64 {
	var total, fpa float64
	for _, n := range g.Nodes {
		if n.Class == core.ClassFixedFP {
			continue
		}
		total += n.Count
		if p.InFPa(n.ID) {
			fpa += n.Count
		}
	}
	if total == 0 {
		return 0
	}
	return fpa / total
}

func TestBalancedCapsFPaFraction(t *testing.T) {
	mod, prof := build(t, memFreeSrc)
	fn := mod.Lookup("churn")
	g := core.BuildGraph(fn, prof)

	adv := core.AdvancedPartition(g, core.DefaultCostParams())
	advFrac := fpaFraction(g, adv)
	if advFrac < 0.4 {
		t.Fatalf("greedy scheme offloaded only %.2f of the memory-free function; expected wholesale move", advFrac)
	}

	bal := core.BalancedPartition(g, core.DefaultCostParams(), 0.35)
	if err := core.VerifyPartition(bal); err != nil {
		t.Fatalf("balanced verify: %v", err)
	}
	balFrac := fpaFraction(g, bal)
	if balFrac > 0.35+1e-9 {
		t.Errorf("balanced fraction %.2f exceeds the 0.35 cap", balFrac)
	}
	if bal.Scheme != "balanced" {
		t.Errorf("scheme name = %q", bal.Scheme)
	}
}

func TestBalancedNoOpWhenUnderCap(t *testing.T) {
	mod, prof := build(t, gccFragment)
	fn := mod.Lookup("invalidate_for_call")
	g := core.BuildGraph(fn, prof)
	adv := core.AdvancedPartition(g, core.DefaultCostParams())
	bal := core.BalancedPartition(g, core.DefaultCostParams(), 0.99)
	for i := range adv.Assign {
		if adv.Assign[i] != bal.Assign[i] {
			t.Fatalf("cap 0.99 changed the assignment at node %d", i)
		}
	}
}

func TestBalancedDisabledByZeroCap(t *testing.T) {
	mod, prof := build(t, memFreeSrc)
	fn := mod.Lookup("churn")
	g := core.BuildGraph(fn, prof)
	bal := core.BalancedPartition(g, core.DefaultCostParams(), 0)
	adv := core.AdvancedPartition(g, core.DefaultCostParams())
	for i := range adv.Assign {
		if adv.Assign[i] != bal.Assign[i] {
			t.Fatalf("cap 0 should disable balancing")
		}
	}
}

func TestBalancedStillValidAcrossWorkloads(t *testing.T) {
	mod, prof := build(t, gccFragment)
	for _, fn := range mod.Funcs {
		g := core.BuildGraph(fn, prof)
		for _, cap := range []float64{0.1, 0.25, 0.5} {
			p := core.BalancedPartition(g, core.DefaultCostParams(), cap)
			if err := core.VerifyPartition(p); err != nil {
				t.Errorf("%s cap=%.2f: %v", fn.Name, cap, err)
			}
		}
	}
}
