// Command fpivet is the repo's own micro-analyzer: a go/analysis-style
// lint (standard library go/ast and go/types only, so it runs in CI
// without any dependency) enforcing four conventions the compiler cannot:
//
//   - Metric-name hygiene: no string literal starting with "uarch." or
//     "service." outside internal/obs/names.go. Those prefixes namespace
//     the exported metric registries; spelling them inline re-introduces
//     exactly the one-literal-at-a-time drift internal/obs/names.go
//     exists to stop. Build the name from the obs.Prefix*/Metric*
//     constants instead.
//
//   - Exit-code hygiene: every os.Exit argument must be a direct
//     fperr.ExitCode(...) call. The fperr class taxonomy is the single
//     source of process exit codes (0 success … 6 unavailable); a raw
//     os.Exit(1) invents an undocumented code and bypasses the
//     classification contract every command documents.
//
//   - Flag hygiene: no flag.Parse() on the global flag set. Its
//     ExitOnError policy exits 2 on an unknown flag, an input-error code
//     for a usage error, from inside the flag package where the exit-code
//     rule cannot see it. Parse a flag.NewFlagSet with ContinueOnError and
//     wrap its error in fperr.ClassUsage.
//
//   - Dead functions (dead-func): every function and method declared in a
//     non-test file outside benchmark/ must be reachable from a main, an
//     init or a package-level initializer through non-test references,
//     the frozen benchmark module's included. A method through which its
//     type implements error or a named interface of an imported package
//     counts as reached, and so do Unwrap, Is and As. The rule
//     type-checks the tree, and the standard library, from source, so a
//     method is told apart from others of the same name. A function only
//     tests call belongs in a _test.go file.
//
// Usage:
//
//	fpivet [dir]        # lint the Go tree rooted at dir (default ".")
//
// Exit codes: 0 clean, 1 usage error, 2 input error (a file that does
// not parse, or a module that does not type-check), 3 findings.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"fpint/internal/fperr"
	"fpint/internal/obs"
)

// namesFile is the one file allowed to spell the namespaced metric
// literals: it defines them.
const namesFile = "internal/obs/names.go"

// badPrefixes are the registry namespaces owned by internal/obs/names.go.
// Built from the constants themselves so fpivet passes its own lint.
var badPrefixes = []string{obs.PrefixUarch, obs.PrefixService}

// Finding is one fpivet diagnostic.
type Finding struct {
	Pos  token.Position
	Code string
	Msg  string
}

func main() {
	err := fpivetMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpivet: %v\n", err)
	}
	os.Exit(fperr.ExitCode(err))
}

func fpivetMain(args []string, w io.Writer) error {
	flags := flag.NewFlagSet("fpivet", flag.ContinueOnError)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	root := "."
	switch flags.NArg() {
	case 0:
	case 1:
		root = flags.Arg(0)
	default:
		return fperr.New(fperr.ClassUsage, "usage: fpivet [dir]")
	}
	findings, err := LintTree(root)
	if err != nil {
		return err
	}
	for _, f := range findings {
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Code, f.Msg)
	}
	if len(findings) > 0 {
		return fperr.New(fperr.ClassInternal, "%d finding(s)", len(findings))
	}
	return nil
}

// LintTree walks every .go file under root (skipping testdata and hidden
// directories), then, when root holds a go.mod, type-checks the module for
// dead functions, and returns the findings in deterministic order.
func LintTree(root string) ([]Finding, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, fperr.Wrap(fperr.ClassInput, err)
	}
	sort.Strings(files)
	var findings []Finding
	for _, path := range files {
		fs, err := LintFile(root, path)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	dead, err := deadFuncs(root)
	if err != nil {
		return nil, err
	}
	return append(findings, dead...), nil
}

// LintFile parses one file and applies every check. root anchors the
// names-file exemption so fpivet works from any directory.
func LintFile(root, path string) ([]Finding, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, fperr.Wrapf(fperr.ClassInput, err, "%s", path)
	}
	rel, rerr := filepath.Rel(root, path)
	if rerr != nil {
		rel = path
	}
	isNamesFile := filepath.ToSlash(rel) == namesFile
	var findings []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if isNamesFile || n.Kind != token.STRING {
				return true
			}
			val, err := strconv.Unquote(n.Value)
			if err != nil {
				return true
			}
			for _, p := range badPrefixes {
				if strings.HasPrefix(val, p) {
					findings = append(findings, Finding{
						Pos:  fset.Position(n.Pos()),
						Code: "metric-literal",
						Msg: fmt.Sprintf("string literal %q hard-codes the %q metric namespace; build it from the constants in %s",
							val, p, namesFile),
					})
					break
				}
			}
		case *ast.CallExpr:
			if isCall(n, "flag", "Parse") {
				findings = append(findings, Finding{
					Pos:  fset.Position(n.Pos()),
					Code: "global-flags",
					Msg:  "flag.Parse exits 2 on a bad flag, outside the fperr taxonomy; parse a flag.NewFlagSet with ContinueOnError and wrap its error in fperr.ClassUsage",
				})
				return true
			}
			if !isCall(n, "os", "Exit") {
				return true
			}
			if len(n.Args) == 1 {
				if arg, ok := n.Args[0].(*ast.CallExpr); ok && isCall(arg, "fperr", "ExitCode") {
					return true
				}
			}
			findings = append(findings, Finding{
				Pos:  fset.Position(n.Pos()),
				Code: "raw-exit",
				Msg:  "os.Exit must take fperr.ExitCode(err) so every process exit code comes from the fperr class taxonomy",
			})
		}
		return true
	})
	return findings, nil
}

// isCall reports whether e is a selector call pkg.name(...).
func isCall(e *ast.CallExpr, pkg, name string) bool {
	sel, ok := e.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == name
}
