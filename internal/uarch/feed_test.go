package uarch_test

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fpint/internal/isa"
	"fpint/internal/trap"
	"fpint/internal/uarch"
)

// runOut is what a run returns, copied out of the machine-owned result.
type runOut struct {
	Ret    int64
	Output string
	Stats  any // uarch.Stats or uarch.SampledStats
}

// runModes runs a program on a machine in each timing mode.
var runModes = []struct {
	name string
	run  func(m *uarch.Machine, prog *isa.Program) (runOut, error)
}{
	{"detailed", func(m *uarch.Machine, prog *isa.Program) (runOut, error) {
		res, st, err := m.Run(prog)
		if err != nil {
			return runOut{}, err
		}
		return runOut{res.Ret, res.Output, st}, nil
	}},
	{"sampled", func(m *uarch.Machine, prog *isa.Program) (runOut, error) {
		res, ss, err := m.RunSampled(prog, uarch.DefaultSampleConfig())
		if err != nil {
			return runOut{}, err
		}
		if ss.Exact {
			return runOut{}, errors.New("sampled run fell back to the detailed model")
		}
		return runOut{res.Ret, res.Output, ss}, nil
	}},
}

// goroutinesBackTo polls runtime.NumGoroutine for up to a second until it
// is at most want, and returns the last count: a run's functional
// simulator goroutine may still be returning when the run does. Tests
// take want before their first run and fail only on a count above it, as
// a goroutine of an earlier test may end while they run.
func goroutinesBackTo(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunHookPanicReachesCaller: a run hook runs on the functional
// simulator's goroutine, and its panic must still reach the caller of Run
// or RunSampled — where the daemon's recover barrier turns it into an
// internal error — instead of crashing the process. The run must leave no
// goroutine behind, and the same machine's next run must equal a fresh
// machine's.
func TestRunHookPanicReachesCaller(t *testing.T) {
	res := compileLoop(t)
	cfg := uarch.Config4Way()
	errBoom := errors.New("boom")
	start := runtime.NumGoroutine()
	for _, mode := range runModes {
		want, err := mode.run(uarch.NewMachine(cfg), res.Prog)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", mode.name, err)
		}
		m := uarch.NewMachine(cfg)
		m.SetRunHook(func(steps int64) error {
			if steps == 200 {
				panic(errBoom)
			}
			return nil
		}, 100)
		recovered := func() (r any) {
			defer func() { r = recover() }()
			_, err := mode.run(m, res.Prog)
			t.Errorf("%s: run returned (err %v) instead of panicking", mode.name, err)
			return nil
		}()
		if err, _ := recovered.(error); !errors.Is(err, errBoom) {
			t.Fatalf("%s: recovered %v, want the hook's panic value", mode.name, recovered)
		}
		if n := goroutinesBackTo(start); n > start {
			t.Errorf("%s: %d goroutines after the panicked run, %d before", mode.name, n, start)
		}
		m.SetRunHook(nil, 0)
		got, err := mode.run(m, res.Prog)
		if err != nil {
			t.Fatalf("%s: run after the panic: %v", mode.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: run after the panic differs from a fresh machine's\n got: %+v\nwant: %+v", mode.name, got, want)
		}
	}
}

// TestRunLeavesNoGoroutine: however a run ends — at HALT, at the step
// limit, or cancelled by its hook — the goroutine count returns to what it
// was before the run.
func TestRunLeavesNoGoroutine(t *testing.T) {
	res := compileLoop(t)
	cancel := func(steps int64) error {
		return trap.New(trap.KindCancelled, "test", "cancelled after %d steps", steps)
	}
	ends := []struct {
		name  string
		limit int64
		hook  func(int64) error
	}{
		{"halt", 0, nil},
		{"step-limit", 5000, nil},
		{"cancelled", 0, cancel},
	}
	start := runtime.NumGoroutine()
	for _, mode := range runModes {
		for _, end := range ends {
			m := uarch.NewMachine(uarch.Config4Way())
			m.SetStepLimit(end.limit)
			m.SetRunHook(end.hook, 1000)
			_, err := mode.run(m, res.Prog)
			if (err == nil) != (end.name == "halt") {
				t.Fatalf("%s/%s: run ended with err %v", mode.name, end.name, err)
			}
			if n := goroutinesBackTo(start); n > start {
				t.Errorf("%s/%s: %d goroutines after the run, %d before", mode.name, end.name, n, start)
			}
		}
	}
}

// TestRunIndependentOfGOMAXPROCS: the functional simulator and the timing
// model share the work differently with one P than with two, and the
// statistics of both modes must not notice.
func TestRunIndependentOfGOMAXPROCS(t *testing.T) {
	res := compileLoop(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
		var outs [2][]runOut
		for i, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, mode := range runModes {
				out, err := mode.run(uarch.NewMachine(cfg), res.Prog)
				if err != nil {
					t.Fatalf("%s/%s at GOMAXPROCS %d: %v", cfg.Name, mode.name, procs, err)
				}
				outs[i] = append(outs[i], out)
			}
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			t.Errorf("%s: runs at GOMAXPROCS 1 and 2 differ\n1: %+v\n2: %+v", cfg.Name, outs[0], outs[1])
		}
	}
}
