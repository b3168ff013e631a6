package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fpint/internal/fperr"
)

var update = flag.Bool("update", false, "rewrite the golden fpilint reports")

func testdataFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	sort.Strings(files)
	return files
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("..", "..", "testdata", "golden", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: report differs from golden (run with -update after verifying)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestLintGoldenText locks the human-readable report over every testdata
// program to a golden file.
func TestLintGoldenText(t *testing.T) {
	var buf bytes.Buffer
	if err := lintReport(testdataFiles(t), false, false, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fpilint.txt", buf.Bytes())
}

// TestLintGoldenJSON locks the SARIF-lite report and verifies it is
// byte-for-byte deterministic across runs.
func TestLintGoldenJSON(t *testing.T) {
	files := testdataFiles(t)
	var first bytes.Buffer
	if err := lintReport(files, true, false, &first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var again bytes.Buffer
		if err := lintReport(files, true, false, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("fpilint -json output is not byte-deterministic (run %d differs)", i+2)
		}
	}
	checkGolden(t, "fpilint.json", first.Bytes())
}

// TestLintOracleGoldenText locks the -oracle report (partition-gap
// findings included) over every testdata program to a golden file.
func TestLintOracleGoldenText(t *testing.T) {
	var buf bytes.Buffer
	if err := lintReport(testdataFiles(t), false, true, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fpilint.oracle.txt", buf.Bytes())
}

// TestLintOracleGoldenJSON locks the -oracle SARIF-lite report and
// verifies it is byte-for-byte deterministic across runs — the oracle's
// branch-and-bound search must not leak iteration order into the
// diagnostics.
func TestLintOracleGoldenJSON(t *testing.T) {
	files := testdataFiles(t)
	var first bytes.Buffer
	if err := lintReport(files, true, true, &first); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := lintReport(files, true, true, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatal("fpilint -oracle -json output is not byte-deterministic")
	}
	checkGolden(t, "fpilint.oracle.json", first.Bytes())
}

// TestFactsSmoke exercises the facts dump path.
func TestFactsSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := dumpFacts(&buf, filepath.Join("..", "..", "testdata", "sieve.c")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("safe:")) {
		t.Errorf("expected at least one safe address fact in sieve.c, got:\n%s", buf.String())
	}
}

// Usage errors exit 1, an unreadable or invalid input exits 2, and the
// findings themselves never fail the exit status.
func TestExitCodes(t *testing.T) {
	src := filepath.Join("..", "..", "testdata", "sieve.c")
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-bogus-flag", src}, 1},
		{nil, 1},
		{[]string{"missing.c"}, 2},
		{[]string{"-h"}, 0},
		{[]string{src}, 0},
		{[]string{"-json", src}, 0},
	} {
		if got := fperr.ExitCode(fpilintMain(c.args, io.Discard)); got != c.want {
			t.Errorf("fpilint %v: exit %d, want %d", c.args, got, c.want)
		}
	}
}
