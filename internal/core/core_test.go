package core_test

import (
	"strings"
	"testing"

	"fpint/internal/core"
	"fpint/internal/interp"
	"fpint/internal/ir"
	"fpint/internal/irgen"
	"fpint/internal/lang"
	"fpint/internal/opt"
)

// build compiles src and returns the module plus a self-profile.
func build(t *testing.T, src string) (*ir.Module, *interp.Profile) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := lang.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	mod, err := irgen.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	opt.Optimize(mod)
	res, err := interp.New(mod).Run()
	if err != nil {
		t.Fatalf("profile run: %v", err)
	}
	return mod, res.Profile
}

// gccFragment mirrors the paper's Figure 3 (invalidate_for_call from gcc):
// a loop over pseudo registers whose body loads a bitmask, tests a bit, and
// conditionally increments reg_tick[regno].
const gccFragment = `
int regs_invalidated_by_call = 12297829382473034410;
int reg_tick[66];
int deleted;

void delete_equiv_reg(int regno) { deleted += regno; }

void invalidate_for_call() {
	for (int regno = 0; regno < 66; regno++) {
		if (regs_invalidated_by_call & (1 << regno)) {
			delete_equiv_reg(regno);
			if (reg_tick[regno] >= 0) reg_tick[regno]++;
		}
	}
}

int main() {
	for (int i = 0; i < 66; i++) reg_tick[i] = i - 3;
	invalidate_for_call();
	return deleted;
}
`

func TestBasicPartitionGccFragment(t *testing.T) {
	mod, prof := build(t, gccFragment)
	fn := mod.Lookup("invalidate_for_call")
	if fn == nil {
		t.Fatal("missing function")
	}
	g := core.BuildGraph(fn, prof)
	p := core.BasicPartition(g)
	if err := core.VerifyPartition(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// No copies or duplicates in the basic scheme.
	if len(p.CopyNodes)+len(p.DupNodes)+len(p.OutCopyNodes) != 0 {
		t.Fatalf("basic scheme introduced transfers")
	}
	// The reg_tick[regno]++ store-value component (load value, +1, store
	// value) must be offloaded: at least one load-value node and one
	// store-value node in FPa.
	loadValFPa, storeValFPa := 0, 0
	for _, n := range g.Nodes {
		if !p.InFPa(n.ID) {
			continue
		}
		switch n.Kind {
		case core.KindLoadVal:
			loadValFPa++
		case core.KindStoreVal:
			storeValFPa++
		}
	}
	if loadValFPa == 0 || storeValFPa == 0 {
		t.Errorf("expected reg_tick increment component in FPa: loadVal=%d storeVal=%d", loadValFPa, storeValFPa)
	}
	// All load/store address nodes must be INT.
	for _, n := range g.Nodes {
		if (n.Kind == core.KindLoadAddr || n.Kind == core.KindStoreAddr) && p.InFPa(n.ID) {
			t.Fatalf("address node n%d in FPa", n.ID)
		}
	}
}

func TestAdvancedOffloadsMoreThanBasic(t *testing.T) {
	mod, prof := build(t, gccFragment)
	fn := mod.Lookup("invalidate_for_call")
	g := core.BuildGraph(fn, prof)
	basic := core.BasicPartition(g)
	adv := core.AdvancedPartition(g, core.DefaultCostParams())
	if err := core.VerifyPartition(adv); err != nil {
		t.Fatalf("advanced verify: %v", err)
	}
	bs := basic.ComputeStats()
	as := adv.ComputeStats()
	if as.FPaWeight < bs.FPaWeight {
		t.Errorf("advanced FPa weight %.1f < basic %.1f", as.FPaWeight, bs.FPaWeight)
	}
	// The branch slice of the loop (regno < 66) should now be offloadable
	// via a copy or duplicate of the induction variable update.
	if as.Copies+as.Dups == 0 {
		t.Errorf("advanced scheme introduced no transfers on the gcc fragment")
	}
}

// TestMemoryFreeFunctionMovesWholesale reproduces the §6.6 observation: the
// compress benchmark's rand-like function performs no memory access, so the
// greedy schemes move essentially the whole function to FPa.
func TestMemoryFreeFunctionMovesWholesale(t *testing.T) {
	src := `
int seed;
int rand20() {
	int s = seed;
	int r = 0;
	for (int i = 0; i < 20; i++) {
		s = s * 1103515245 + 12345;
		r = r ^ (s >> 16);
	}
	seed = s;
	return r & 32767;
}
int main() {
	seed = 99;
	return rand20();
}
`
	mod, prof := build(t, src)
	fn := mod.Lookup("rand20")
	g := core.BuildGraph(fn, prof)
	p := core.AdvancedPartition(g, core.DefaultCostParams())
	if err := core.VerifyPartition(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	st := p.ComputeStats()
	// The multiply-based LCG pins some nodes to INT (no integer multiply in
	// FPa), but the xor/shift/branch body should be largely offloaded.
	if st.FPaWeight == 0 {
		t.Errorf("memory-free function offloaded nothing; stats %+v", st)
	}
}

func TestLdStSliceDominatesIntegerCode(t *testing.T) {
	src := `
int a[256];
int b[256];
int main() {
	for (int i = 0; i < 256; i++) a[i] = i;
	int s = 0;
	for (int i = 0; i < 256; i++) {
		b[i] = a[i] + a[(i+1) & 255];
		s += b[i];
	}
	return s;
}
`
	mod, prof := build(t, src)
	fn := mod.Lookup("main")
	g := core.BuildGraph(fn, prof)
	st := g.ComputeSliceStats()
	if st.TotalWeight <= 0 {
		t.Fatal("no weight")
	}
	frac := st.LdStWeight / st.TotalWeight
	// The paper (§4, citing [26]) puts LdSt slices close to 50% of dynamic
	// instructions for integer programs. Memory-heavy code should be well
	// above 30%.
	if frac < 0.3 {
		t.Errorf("LdSt slice fraction %.2f too small", frac)
	}
}

func TestPartitionValidatesAcrossPrograms(t *testing.T) {
	srcs := map[string]string{
		"calls": `
int g;
int helper(int x, int y) { return x*2 + y; }
int main() {
	int s = 0;
	for (int i = 0; i < 50; i++) s = helper(s, i);
	g = s;
	return s & 1023;
}`,
		"floats": `
float acc[16];
int main() {
	float s = 0.0;
	for (int i = 0; i < 16; i++) acc[i] = (float) i;
	for (int i = 0; i < 16; i++) s += acc[i];
	return (int) s;
}`,
		"branches": `
int hist[8];
int main() {
	int x = 12345;
	for (int i = 0; i < 200; i++) {
		x = x * 31 + 7;
		int b = (x >> 3) & 7;
		if (b > 4) hist[b]++;
		else if (b > 2) hist[0]++;
		else hist[1] += 2;
	}
	int s = 0;
	for (int i = 0; i < 8; i++) s += hist[i];
	return s;
}`,
		"recursion": `
int depth;
int walk(int n) {
	if (n <= 1) return 1;
	depth++;
	return walk(n/2) + walk(n-1) % 97;
}
int main() { return walk(18) & 4095; }`,
	}
	for name, src := range srcs {
		src := src
		t.Run(name, func(t *testing.T) {
			mod, prof := build(t, src)
			for _, fn := range mod.Funcs {
				g := core.BuildGraph(fn, prof)
				basic := core.BasicPartition(g)
				if err := core.VerifyPartition(basic); err != nil {
					t.Errorf("%s basic: %v", fn.Name, err)
				}
				adv := core.AdvancedPartition(g, core.DefaultCostParams())
				if err := core.VerifyPartition(adv); err != nil {
					t.Errorf("%s advanced: %v", fn.Name, err)
				}
				bs, as := basic.ComputeStats(), adv.ComputeStats()
				if as.FPaWeight+1e-6 < bs.FPaWeight {
					t.Errorf("%s: advanced (%.1f) offloads less than basic (%.1f)",
						fn.Name, as.FPaWeight, bs.FPaWeight)
				}
			}
		})
	}
}

func TestSlicesStopAtLoadValues(t *testing.T) {
	src := `
int a[8];
int b[8];
int main() {
	int s = 0;
	for (int i = 0; i < 8; i++) {
		b[i] = a[i] + 1;
		s += b[i];
	}
	return s;
}
`
	mod, prof := build(t, src)
	fn := mod.Lookup("main")
	g := core.BuildGraph(fn, prof)
	// For each load: the backward slice of its value node must not contain
	// its own address node (slices stop at load values).
	addrOf := map[int]core.NodeID{}
	for _, n := range g.Nodes {
		if n.Kind == core.KindLoadAddr {
			addrOf[n.Instr.ID] = n.ID
		}
	}
	for _, n := range g.Nodes {
		if n.Kind != core.KindLoadVal {
			continue
		}
		addrID, ok := addrOf[n.Instr.ID]
		if !ok {
			t.Fatal("missing addr node")
		}
		back := g.BackwardSlice(n.ID)
		if back[addrID] {
			t.Errorf("backward slice of load value includes its address node")
		}
	}
}

func TestCostParamsRespectDuplPreference(t *testing.T) {
	// With a huge o_dupl, nothing should be duplicated.
	mod, prof := build(t, gccFragment)
	fn := mod.Lookup("invalidate_for_call")
	g := core.BuildGraph(fn, prof)
	p := core.AdvancedPartition(g, core.CostParams{OCopy: 4, ODupl: 100})
	if err := core.VerifyPartition(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(p.DupNodes) != 0 {
		t.Errorf("expected no duplications with o_dupl >> o_copy, got %d", len(p.DupNodes))
	}
}

func TestGraphDeterminism(t *testing.T) {
	mod, prof := build(t, gccFragment)
	fn := mod.Lookup("invalidate_for_call")
	g1 := core.BuildGraph(fn, prof)
	g2 := core.BuildGraph(fn, prof)
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatalf("node counts differ")
	}
	p1 := core.AdvancedPartition(g1, core.DefaultCostParams())
	p2 := core.AdvancedPartition(g2, core.DefaultCostParams())
	for i := range p1.Assign {
		if p1.Assign[i] != p2.Assign[i] {
			t.Fatalf("nondeterministic assignment at node %d", i)
		}
	}
}

func TestDotGraphRendering(t *testing.T) {
	mod, prof := build(t, gccFragment)
	fn := mod.Lookup("invalidate_for_call")
	g := core.BuildGraph(fn, prof)
	p := core.AdvancedPartition(g, core.DefaultCostParams())
	dot := core.DotGraph(g, p)
	for _, want := range []string{"digraph", "->", "fillcolor=lightblue", "shape=box"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	// Plain rendering without a partition also works.
	if plain := core.DotGraph(g, nil); !strings.Contains(plain, "digraph") {
		t.Error("plain dot rendering broken")
	}
}
