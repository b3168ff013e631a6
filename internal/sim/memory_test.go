package sim_test

import (
	"fmt"
	"runtime"
	"testing"

	"fpint/internal/isa"
	"fpint/internal/sim"
	"fpint/internal/trap"
)

// TestMemoryBoundary pins the paged memory against a flat 16 MiB one: the
// last in-range word round-trips, a word straddling the first page
// boundary keeps its little-endian bytes on both pages, a never-written
// page reads 0, and one byte past the last word, or a word below address 0,
// traps.
func TestMemoryBoundary(t *testing.T) {
	res := run(t, prog(
		isa.Inst{Op: isa.LI, Rd: 9, Imm: sim.MemSize - 8},
		isa.Inst{Op: isa.LI, Rd: 8, Imm: 12345},
		isa.Inst{Op: isa.SW, Rs: 8, Rt: 9, Imm: 0},
		isa.Inst{Op: isa.LW, Rd: 10, Rs: 9, Imm: 0},
		isa.Inst{Op: isa.PRNI, Rs: 10}, // 12345
		isa.Inst{Op: isa.LI, Rd: 8, Imm: 0x0102030405060708},
		isa.Inst{Op: isa.SW, Rs: 8, Rt: 0, Imm: 4092}, // bytes 4092..4099
		isa.Inst{Op: isa.LW, Rd: 10, Rs: 0, Imm: 4092},
		isa.Inst{Op: isa.PRNI, Rs: 10}, // the word itself
		isa.Inst{Op: isa.LW, Rd: 10, Rs: 0, Imm: 4088},
		isa.Inst{Op: isa.PRNI, Rs: 10}, // its low half, high in this word
		isa.Inst{Op: isa.LW, Rd: 10, Rs: 0, Imm: 4096},
		isa.Inst{Op: isa.PRNI, Rs: 10}, // its high half, low in this word
		isa.Inst{Op: isa.LI, Rd: 9, Imm: 8 << 20},
		isa.Inst{Op: isa.LW, Rd: 10, Rs: 9, Imm: 0},
		isa.Inst{Op: isa.PRNI, Rs: 10}, // never written: 0
		isa.Inst{Op: isa.LW, Rd: 10, Rs: 0, Imm: 8188},
		isa.Inst{Op: isa.PRNI, Rs: 10}, // straddles pages 1 and 2: 0
		isa.Inst{Op: isa.JR, Rs: 31},
	))
	want := fmt.Sprintf("12345\n%d\n%d\n%d\n0\n0\n", int64(0x0102030405060708), int64(0x0506070800000000), 0x01020304)
	if res.Output != want {
		t.Errorf("output %q, want %q", res.Output, want)
	}

	for _, tc := range []struct {
		name string
		addr int64
		in   isa.Inst
	}{
		{"load at MemSize-7", sim.MemSize - 7, isa.Inst{Op: isa.LW, Rd: 10, Rs: 9}},
		{"store at MemSize-7", sim.MemSize - 7, isa.Inst{Op: isa.SW, Rs: 8, Rt: 9}},
		{"load at -8", -8, isa.Inst{Op: isa.LW, Rd: 10, Rs: 9}},
		{"store at -8", -8, isa.Inst{Op: isa.SW, Rs: 8, Rt: 9}},
	} {
		p := prog(
			isa.Inst{Op: isa.LI, Rd: 9, Imm: tc.addr},
			tc.in,
			isa.Inst{Op: isa.JR, Rs: 31},
		)
		_, err := sim.New(p).Run()
		if got := trap.KindOf(err); got != trap.KindOutOfBounds {
			t.Errorf("%s: got %v (err=%v), want out-of-bounds", tc.name, got, err)
		}
	}
}

// TestRunAllocatesWhatItTouches guards against the flat arena coming back:
// a fresh machine running a small program must allocate well under 1 MiB,
// where a 16 MiB arena costs 16 MiB a machine.
func TestRunAllocatesWhatItTouches(t *testing.T) {
	p := loopProg(isa.Inst{Op: isa.PRNI, Rs: 2})
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := sim.New(p).Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if perRun >= 1<<20 {
		t.Fatalf("a fresh machine's run allocates %d bytes, want < 1 MiB", perRun)
	}
	t.Logf("%d bytes a run", perRun)
}

// pagesProg stores val to each of stores, then returns the sum of the words
// at loads.
func pagesProg(stores, loads []int64, val int64) *isa.Program {
	insts := []isa.Inst{
		{Op: isa.LI, Rd: 2, Imm: 0},
		{Op: isa.LI, Rd: 8, Imm: val},
	}
	for _, a := range stores {
		insts = append(insts,
			isa.Inst{Op: isa.LI, Rd: 9, Imm: a},
			isa.Inst{Op: isa.SW, Rs: 8, Rt: 9})
	}
	for _, a := range loads {
		insts = append(insts,
			isa.Inst{Op: isa.LI, Rd: 9, Imm: a},
			isa.Inst{Op: isa.LW, Rd: 10, Rs: 9},
			isa.Inst{Op: isa.ADD, Rd: 2, Rs: 2, Rt: 10})
	}
	return prog(append(insts, isa.Inst{Op: isa.JR, Rs: 31})...)
}

// TestResetReusesPages: program A stores to four pages. Reset moves the
// machine onto program B, which stores to the next word of three of them,
// on the same pages, and then reads A's words as 0: Reset zeroed A's pages
// back onto the free list, and B's stores took them from there without
// allocating. Program C then reads B's words as 0 too.
func TestResetReusesPages(t *testing.T) {
	addrs := []int64{0x1000, 0x402008, 0x7ff000, sim.MemSize - 8}
	next := []int64{0x1008, 0x402010, 0x7ff008}
	m := sim.New(pagesProg(addrs, nil, 7))
	if _, err := m.Run(); err != nil {
		t.Fatalf("A: %v", err)
	}
	for _, p := range []struct {
		name string
		prog *isa.Program
	}{
		{"B", pagesProg(next, addrs, 9)},
		{"C", pagesProg(nil, append(next, addrs...), 0)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.Reset(p.prog)
		res, err := m.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if res.Ret != 0 {
			t.Errorf("%s read %d from the words the previous run wrote, want 0", p.name, res.Ret)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: Reset and the run allocated %d times, want 0", p.name, n)
		}
	}
}
