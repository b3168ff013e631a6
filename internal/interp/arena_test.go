package interp_test

import (
	"fmt"
	"runtime"
	"testing"

	"fpint/internal/interp"
	"fpint/internal/trap"
)

// arenaSrc indexes a, the first global and so at address 8, with an index
// read from a global, so no pass can fold the address.
func arenaSrc(idx int64, body string) string {
	return fmt.Sprintf("int a[4];\nint idx = %d;\nint main() { %s }", idx, body)
}

// TestArenaBoundary: the arena grows with the stores a run makes, but the
// trap bound stays where a flat 16 MiB arena puts it. The last in-range
// word round-trips, a never-written word reads 0, and one word further,
// or below address 0, traps. internal/trap's TestLastWordRunsClean holds
// the simulator to the same edge.
func TestArenaBoundary(t *testing.T) {
	const last = 2097150 // 8 + 2097150*8 = memSize - 8
	// a[idx - 1048574] is a[1048576], 8 MiB in and never written: it is
	// read before the store to a[last] grows the arena past it, and after.
	mod := compile(t, arenaSrc(last, "int before = a[idx - 1048574]; a[idx] = 12345; return before + a[idx - 1048574] + a[idx];"))
	m := interp.New(mod)
	if got := m.GlobalAddr("a"); got != 8 {
		t.Fatalf("a at %d, want 8", got)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Ret != 12345 {
		t.Errorf("ret = %d, want 12345 (the never-written a[1048576] must read 0)", res.Ret)
	}
	for idx, want := range map[int64]int64{last: 12345, last - 1: 0, 1048576: 0} {
		if got := m.ReadGlobalInt("a", idx); got != want {
			t.Errorf("a[%d] = %d after the run, want %d", idx, got, want)
		}
	}

	for _, tc := range []struct {
		name string
		idx  int64
		body string
	}{
		{"load at memSize", last + 1, "return a[idx];"},
		{"store at memSize", last + 1, "a[idx] = 1; return 0;"},
		{"load below 0", -2, "return a[idx];"},
		{"store below 0", -2, "a[idx] = 1; return 0;"},
	} {
		_, err := interp.New(compile(t, arenaSrc(tc.idx, tc.body))).Run()
		if got := trap.KindOf(err); got != trap.KindOutOfBounds {
			t.Errorf("%s: got %v (err=%v), want out-of-bounds", tc.name, got, err)
		}
	}
}

// TestRunAllocatesWhatItTouches guards against the arena coming back as
// one up-front allocation: a small program's run must allocate well under
// 1 MiB, where a flat 16 MiB arena costs 16 MiB a run.
func TestRunAllocatesWhatItTouches(t *testing.T) {
	mod := compile(t, `
int a[256];
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s = s + a[i];
	return s;
}
int main() {
	for (int i = 0; i < 256; i++) a[i] = i * 3;
	return sum(256);
}`)
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := interp.New(mod).Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if perRun >= 1<<20 {
		t.Fatalf("a run allocates %d bytes, want < 1 MiB", perRun)
	}
	t.Logf("%d bytes a run", perRun)
}
