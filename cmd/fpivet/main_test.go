package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpint/internal/fperr"
)

// writeTree materializes files (rel path → contents) under a temp root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// The repo itself must be fpivet-clean: this is the same invariant CI
// enforces with `go run ./cmd/fpivet`, pinned here so a violation fails
// `go test ./...` too.
func TestRepoIsClean(t *testing.T) {
	findings, err := LintTree(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("lint repo: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Code, f.Msg)
	}
}

func TestMetricLiteralRule(t *testing.T) {
	root := writeTree(t, map[string]string{
		"bad/bad.go": `package bad

const a = "uarch.cycles"

var b = map[string]int{"service.jobs": 1}

// A comment saying "uarch.cycles" is fine; only string literals count.
var ok = "uarchitecture" // no dot — not the namespace
`,
		// The names file itself is exempt: it is where the literals live.
		"internal/obs/names.go": `package obs

const PrefixUarch = "uarch."
const PrefixService = "service."
`,
	})
	findings, err := LintTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2:\n%v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Code != "metric-literal" {
			t.Errorf("finding %v has code %q, want metric-literal", f.Pos, f.Code)
		}
		if !strings.HasSuffix(f.Pos.Filename, filepath.FromSlash("bad/bad.go")) {
			t.Errorf("finding in %s, want bad/bad.go", f.Pos.Filename)
		}
	}
	if !strings.Contains(findings[0].Msg, `"uarch.cycles"`) || !strings.Contains(findings[1].Msg, `"service.jobs"`) {
		t.Errorf("messages do not name the offending literals:\n%v", findings)
	}
}

func TestRawExitRule(t *testing.T) {
	root := writeTree(t, map[string]string{
		"main.go": `package main

import (
	"os"

	"fpint/internal/fperr"
)

func main() {
	if bad() {
		os.Exit(1)
	}
	os.Exit(fperr.ExitCode(run()))
}
`,
	})
	findings, err := LintTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the raw os.Exit(1):\n%v", len(findings), findings)
	}
	if findings[0].Code != "raw-exit" || findings[0].Pos.Line != 11 {
		t.Errorf("got %s at line %d, want raw-exit at line 11", findings[0].Code, findings[0].Pos.Line)
	}
}

// testdata trees hold mini-C fixtures and deliberately broken sources;
// fpivet must not descend into them.
func TestSkipsTestdata(t *testing.T) {
	root := writeTree(t, map[string]string{
		"testdata/fixture.go": `package fixture
var x = "uarch.cycles"
`,
		"ok.go": `package ok
`,
	})
	findings, err := LintTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings inside testdata should be skipped:\n%v", findings)
	}
}

// An unparseable file is an input error, not a crash and not a silent skip.
func TestParseErrorIsInputError(t *testing.T) {
	root := writeTree(t, map[string]string{
		"broken.go": "package broken\nfunc {",
	})
	if _, err := LintTree(root); err == nil {
		t.Fatal("expected an error for unparseable source")
	}
}

func TestGlobalFlagsRule(t *testing.T) {
	root := writeTree(t, map[string]string{
		"main.go": `package main

import "flag"

func main() {
	fs := flag.NewFlagSet("ok", flag.ContinueOnError)
	fs.Parse(nil)
	flag.Parse()
}
`,
	})
	findings, err := LintTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the global flag.Parse():\n%v", len(findings), findings)
	}
	if findings[0].Code != "global-flags" || findings[0].Pos.Line != 8 {
		t.Errorf("got %s at line %d, want global-flags at line 8", findings[0].Code, findings[0].Pos.Line)
	}
}

func TestDeadFuncRule(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module ex\n\ngo 1.22\n",
		"main.go": `package main

import (
	"errors"
	"fmt"

	"ex/lib"
)

type shape interface{ Area() int }

type square struct{ n int }

// Area is called only through shape.
func (s square) Area() int { return s.n * s.n }

type name string

// String is called only by fmt.
func (n name) String() string { return string(n) }

type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped" }

// Unwrap is called only by package errors.
func (w wrapped) Unwrap() error { return w.err }

func main() {
	var s shape = square{2}
	run := valueOnly
	run()
	fmt.Println(s.Area(), name("x"), lib.Used(), errors.Unwrap(wrapped{}))
}

func valueOnly() {}

func unused() {}

func testOnly() int { return 1 }

func deadCaller() { deadCallee() }

func deadCallee() {}
`,
		"main_test.go": `package main

import "testing"

func TestOnly(t *testing.T) { testOnly() }
`,
		"lib/lib.go": `package lib

func Used() int { return 1 }

func BenchOnly() int { return 2 }
`,
		// The benchmark's references count; its own functions are not
		// reported.
		"benchmark/main.go": `package main

import "ex/lib"

func main() { _ = lib.BenchOnly() }

func benchUnused() {}
`,
	})
	findings, err := LintTree(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		if f.Code != "dead-func" || !strings.HasSuffix(f.Pos.Filename, "main.go") || strings.Contains(f.Pos.Filename, "benchmark") {
			t.Errorf("unexpected finding %s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Code, f.Msg)
			continue
		}
		got = append(got, strings.Fields(f.Msg)[1])
	}
	if want := "unused() testOnly() deadCaller() deadCallee()"; strings.Join(got, " ") != want {
		t.Errorf("dead functions %v, want %s", got, want)
	}
}

// Usage errors exit 1, and a tree that cannot be read or type-checked
// exits 2.
func TestExitCodes(t *testing.T) {
	clean := writeTree(t, map[string]string{"ok.go": "package ok\n"})
	illTyped := writeTree(t, map[string]string{"go.mod": "module ex\n", "main.go": "package main\n\nfunc main() { undefined() }\n"})
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-bogus-flag"}, 1},
		{[]string{clean, clean}, 1},
		{[]string{filepath.Join(clean, "missing")}, 2},
		{[]string{illTyped}, 2},
		{[]string{"-h"}, 0},
		{[]string{clean}, 0},
	} {
		if got := fperr.ExitCode(fpivetMain(c.args, io.Discard)); got != c.want {
			t.Errorf("fpivet %v: exit %d, want %d", c.args, got, c.want)
		}
	}
}
