package fpint

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/isa"
	"fpint/internal/obs/profile"
	"fpint/internal/uarch"
)

// lineCycleSum returns Σ Cycles over all line buckets of p; equal to
// TotalCycles by construction.
func lineCycleSum(p *profile.Profile) int64 {
	var n int64
	for _, s := range p.Lines {
		n += s.Cycles
	}
	return n
}

// stallTotal returns the line's total stall cycles.
func stallTotal(s *profile.LineSample) int64 {
	var n int64
	for _, v := range s.Stall {
		n += v
	}
	return n
}

// TestProfileAttributionClosed is the profiler's acceptance test: for every
// sample program, on both Table 1 machine configurations, the per-line cycle
// attribution must sum exactly to the simulator's total cycle count. The
// profiler never invents or drops cycles — the closed stall ledger the
// pipeline maintains per PC survives the join with the debug line table.
func TestProfileAttributionClosed(t *testing.T) {
	files, err := filepath.Glob("testdata/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, file := range files {
		file := file
		name := strings.TrimSuffix(filepath.Base(file), ".c")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := codegen.CompileSource(string(data), codegen.Options{Scheme: codegen.SchemeAdvanced})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
				t.Run(cfg.Name, func(t *testing.T) {
					st, cp := runProfiled(t, res.Prog, cfg)
					if got := st.StallAccountingError(); got != 0 {
						t.Fatalf("stall ledger not closed: error=%d", got)
					}
					if cp.TotalAttributed() != st.Cycles {
						t.Fatalf("per-PC attribution %d != total cycles %d",
							cp.TotalAttributed(), st.Cycles)
					}
					pr := profile.Build(res.Prog, cp)
					if pr.TotalCycles != st.Cycles {
						t.Fatalf("profile total %d != simulator cycles %d", pr.TotalCycles, st.Cycles)
					}
					if sum := lineCycleSum(pr); sum != st.Cycles {
						t.Fatalf("per-line cycle sum %d != total cycles %d", sum, st.Cycles)
					}
					if pr.Instructions != st.Instructions {
						t.Fatalf("retired attribution %d != instruction count %d",
							pr.Instructions, st.Instructions)
					}
					// Every line bucket is internally consistent: the
					// active/stall split and subsystem split both cover it.
					for k, s := range pr.Lines {
						if stall := stallTotal(s); s.Active+stall != s.Cycles {
							t.Errorf("%s:L%d active %d + stall %d != cycles %d",
								k.Func, k.Line, s.Active, stall, s.Cycles)
						}
						var bySub int64
						for _, n := range s.BySub {
							bySub += n
						}
						if bySub != s.Cycles {
							t.Errorf("%s:L%d subsystem split %d != cycles %d",
								k.Func, k.Line, bySub, s.Cycles)
						}
					}
					// main must have attributed lines with real source numbers.
					fs := pr.Funcs["main"]
					if fs == nil || fs.Cycles == 0 {
						t.Fatalf("no cycles attributed to main")
					}
					hasLine := false
					for k := range pr.Lines {
						if k.Func == "main" && k.Line > 0 && pr.Lines[k].Cycles > 0 {
							hasLine = true
							break
						}
					}
					if !hasLine {
						t.Fatalf("main has no per-line attribution")
					}
				})
			}
		})
	}
}

// TestProfileFoldedGolden pins the folded-stack export byte-for-byte for one
// representative program. Regenerate with
// `go test -run TestProfileFoldedGolden -update .` after an intentional
// timing-model or compiler change.
func TestProfileFoldedGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/matmul.c")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := codegen.CompileSource(string(data), codegen.Options{Scheme: codegen.SchemeAdvanced})
	if err != nil {
		t.Fatal(err)
	}
	_, cp := runProfiled(t, res.Prog, uarch.Config4Way())
	var buf bytes.Buffer
	profile.WriteFolded(&buf, profile.Build(res.Prog, cp))
	got := buf.String()

	goldenPath := filepath.Join("testdata", "golden", "matmul.folded.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("folded output diverges from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Independently of the exact bytes: the folded total equals the cycle
	// count and every row parses as "stack cycles".
	var total int64
	for _, ln := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
		var stack string
		var cycles int64
		if _, err := fmt.Sscanf(ln, "%s %d", &stack, &cycles); err != nil {
			t.Fatalf("unparseable folded row %q: %v", ln, err)
		}
		total += cycles
	}
	pr := profile.Build(res.Prog, cp)
	if total != pr.TotalCycles {
		t.Errorf("folded total %d != profile total %d", total, pr.TotalCycles)
	}
}

// TestProfilePprofWireFormat decodes the gzipped pprof output with a minimal
// protobuf walker and checks the pieces `go tool pprof` depends on: two
// sample types, samples whose first value sums to the total cycle count, and
// a string table carrying the function names.
func TestProfilePprofWireFormat(t *testing.T) {
	data, err := os.ReadFile("testdata/bitcount.c")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := codegen.CompileSource(string(data), codegen.Options{Scheme: codegen.SchemeAdvanced})
	if err != nil {
		t.Fatal(err)
	}
	st, cp := runProfiled(t, res.Prog, uarch.Config4Way())
	pr := profile.Build(res.Prog, cp)

	var buf bytes.Buffer
	if err := profile.WritePprof(&buf, pr, "bitcount.c"); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("output is not gzipped: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}

	var (
		sampleTypes int
		cycleSum    int64
		strTable    []string
	)
	walkFields(t, raw, func(field int, wire int, varint uint64, sub []byte) {
		switch field {
		case 1: // ValueType sample_type
			sampleTypes++
		case 2: // Sample
			walkFields(t, sub, func(f, w int, v uint64, s []byte) {
				if f == 2 { // packed repeated value
					vals := unpackVarints(t, s)
					if len(vals) != 2 {
						t.Fatalf("sample has %d values, want 2", len(vals))
					}
					cycleSum += int64(vals[0])
				}
			})
		case 6: // string_table
			strTable = append(strTable, string(sub))
		}
	})
	if sampleTypes != 2 {
		t.Errorf("sample_type count = %d, want 2 (cycles, instructions)", sampleTypes)
	}
	if cycleSum != st.Cycles {
		t.Errorf("pprof cycle sum %d != simulator cycles %d", cycleSum, st.Cycles)
	}
	if len(strTable) == 0 || strTable[0] != "" {
		t.Fatalf("string table must start with the empty string, got %q", strTable)
	}
	want := map[string]bool{"cycles": false, "count": false, "main": false, "bitcount.c": false}
	for _, s := range strTable {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for s, seen := range want {
		if !seen {
			t.Errorf("string table missing %q", s)
		}
	}
}

// walkFields iterates the top-level fields of a protobuf message, passing
// varint fields by value and length-delimited fields by subslice.
func walkFields(t *testing.T, b []byte, fn func(field, wire int, varint uint64, sub []byte)) {
	t.Helper()
	for len(b) > 0 {
		key, n := decodeVarint(b)
		if n == 0 {
			t.Fatalf("truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := decodeVarint(b)
			if n == 0 {
				t.Fatalf("truncated varint in field %d", field)
			}
			b = b[n:]
			fn(field, wire, v, nil)
		case 2:
			l, n := decodeVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				t.Fatalf("truncated length-delimited field %d", field)
			}
			fn(field, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		default:
			t.Fatalf("unexpected wire type %d for field %d", wire, field)
		}
	}
}

func unpackVarints(t *testing.T, b []byte) []uint64 {
	t.Helper()
	var out []uint64
	for len(b) > 0 {
		v, n := decodeVarint(b)
		if n == 0 {
			t.Fatalf("truncated packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

func decodeVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// runProfiled runs prog on a fresh machine with cycle profiling armed.
func runProfiled(t *testing.T, prog *isa.Program, cfg uarch.Config) (uarch.Stats, *uarch.CycleProfile) {
	t.Helper()
	m := uarch.NewMachine(cfg)
	m.SetProfiling(true)
	_, st, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return st, m.Profile()
}
