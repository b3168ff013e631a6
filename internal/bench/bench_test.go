package bench_test

import (
	"errors"
	"sync"
	"testing"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/uarch"
)

// figureRows holds the Figure 9 (4-way) and Figure 10 (8-way) speedup rows,
// measured once for every test that reads them. The two configurations are
// measured concurrently: a test waiting on the fixture holds a parallel
// test slot, so a serial fixture would leave a CPU idle.
var figureRows = sync.OnceValues(func() ([2][]bench.SpeedupRow, error) {
	s := bench.NewSuite()
	var rows [2][]bench.SpeedupRow
	var errs [2]error
	var wg sync.WaitGroup
	for i, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i], errs[i] = s.FigureSpeedups(bench.IntWorkloads(), cfg)
		}()
	}
	wg.Wait()
	return rows, errors.Join(errs[:]...)
})

// TestWorkloadsCompileAndAgree compiles every workload under every scheme
// and cross-checks the functional results against the IR interpreter.
func TestWorkloadsCompileAndAgree(t *testing.T) {
	t.Parallel()
	s := bench.NewSuite()
	for _, w := range bench.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := uarch.Config4Way()
			for _, scheme := range []codegen.Scheme{codegen.SchemeNone, codegen.SchemeBasic, codegen.SchemeAdvanced} {
				m, err := s.Measure(&w, scheme, cfg)
				if err != nil {
					t.Fatalf("%v: %v", scheme, err)
				}
				if m.DynInstrs < 10000 {
					t.Errorf("%v: workload too small: %d dynamic instructions", scheme, m.DynInstrs)
				}
				if m.Cycles <= 0 {
					t.Errorf("%v: no cycles", scheme)
				}
			}
		})
	}
}

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite measurement")
	}
	t.Parallel()
	s := bench.NewSuite()
	rows, err := s.FigurePartitionSizes(bench.IntWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-10s basic=%5.1f%% advanced=%5.1f%%", r.Workload, r.BasicPct, r.AdvancedPct)
		if r.AdvancedPct+0.01 < r.BasicPct {
			t.Errorf("%s: advanced (%.1f%%) offloads less than basic (%.1f%%)", r.Workload, r.AdvancedPct, r.BasicPct)
		}
		if r.AdvancedPct <= 0 {
			t.Errorf("%s: advanced scheme offloaded nothing", r.Workload)
		}
		if r.AdvancedPct > 50 {
			t.Errorf("%s: advanced offload %.1f%% exceeds the LdSt-slice bound", r.Workload, r.AdvancedPct)
		}
	}
}

func TestOverheadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite measurement")
	}
	t.Parallel()
	s := bench.NewSuite()
	rows, err := s.Overheads(bench.IntWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-10s dyn+%.2f%% copies=%.2f%% dups=%.2f%% static+%.2f%%",
			r.Workload, r.DynGrowthPct, r.CopyPct, r.DupPct, r.StaticGrowthPct)
		// §7.2: max observed increase was 4% (compress); give headroom.
		if r.DynGrowthPct > 8 {
			t.Errorf("%s: dynamic instruction growth %.1f%% too large", r.Workload, r.DynGrowthPct)
		}
	}
}

// TestFigure9Shape pins the qualitative claims of Figure 9: the advanced
// scheme never loses to basic, li-like call-dense code gains least, and
// the conventional machine never beats the augmented one by more than
// noise on any integer workload.
func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite measurement")
	}
	t.Parallel()
	figs, err := figureRows()
	if err != nil {
		t.Fatal(err)
	}
	rows := figs[0]
	var liAdv float64
	maxAdv := -1e9
	for _, r := range rows {
		t.Logf("%-10s basic=%+5.1f%% advanced=%+5.1f%%", r.Workload, r.BasicPct, r.AdvancedPct)
		if r.AdvancedPct < -1 {
			t.Errorf("%s: advanced scheme slows the 4-way machine down by %.1f%%", r.Workload, -r.AdvancedPct)
		}
		if r.Workload == "li" {
			liAdv = r.AdvancedPct
		}
		if r.AdvancedPct > maxAdv {
			maxAdv = r.AdvancedPct
		}
	}
	// li benefits least (paper: ~2.5%, the flattest bar in Figure 9).
	for _, r := range rows {
		if r.Workload != "li" && r.AdvancedPct < liAdv-0.5 {
			t.Errorf("%s (%.1f%%) gains less than call-dense li (%.1f%%)", r.Workload, r.AdvancedPct, liAdv)
		}
	}
	if maxAdv < 10 {
		t.Errorf("best advanced speedup %.1f%% < 10%%; paper's best cases exceed 10%%", maxAdv)
	}
}

// TestFig10SmallerThanFig9 pins the 4-way vs 8-way contrast.
func TestFig10SmallerThanFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite measurement")
	}
	t.Parallel()
	figs, err := figureRows()
	if err != nil {
		t.Fatal(err)
	}
	r4, r8 := figs[0], figs[1]
	var sum4, sum8 float64
	for i := range r4 {
		sum4 += r4[i].AdvancedPct
		sum8 += r8[i].AdvancedPct
	}
	if sum8 >= sum4 {
		t.Errorf("aggregate 8-way speedup (%.1f) not smaller than 4-way (%.1f)", sum8, sum4)
	}
}
