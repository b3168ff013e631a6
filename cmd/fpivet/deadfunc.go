package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"fpint/internal/fperr"
)

// benchDir holds the frozen benchmark module. Its references keep the
// tree's functions alive like any command's, but its own functions are
// not reported: that module changes only with the benchmark.
const benchDir = "benchmark"

// errorsMethods are the methods package errors calls through unnamed
// interfaces, so no named interface roots them.
var errorsMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// loader type-checks the packages of the tree rooted at dir from source,
// and the standard library through the source importer. The directory
// dir/<rel> holds the package modPath/<rel>; a nested module (benchmark/)
// must be named that way too.
type loader struct {
	dir, modPath string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package // import path → package; nil while it is checked
	files        []*ast.File               // the non-test files of every tree package
	info         *types.Info
}

// Import resolves path inside the tree or else in the standard library.
func (l *loader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return pkg, nil
	}
	if p != l.modPath && !strings.HasPrefix(p, l.modPath+"/") {
		return l.std.Import(p)
	}
	bp, err := build.Default.ImportDir(filepath.Join(l.dir, filepath.FromSlash(strings.TrimPrefix(p, l.modPath))), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l.pkgs[p] = nil
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	l.files = append(l.files, files...)
	return pkg, nil
}

// deadFuncs reports every function and method declared in a non-test file
// outside benchDir that no root reaches through references in non-test
// files. The roots are main, init, package-level initializers, the
// methods through which a type of the tree implements error or a named
// interface of any package the tree imports, and Unwrap, Is and As.
// Reachability is a worklist from the roots, so a chain of functions
// that only call each other is reported whole. Types, not names, decide
// which method a call reaches. A tree with no go.mod at root has no
// import paths and is not checked.
func deadFuncs(root string) ([]Finding, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fperr.Wrap(fperr.ClassInput, err)
	}
	// The source importer reads build.Default. The tree has no cgo, so
	// check the standard library's pure-Go files and run no C compiler.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		dir:     root,
		modPath: modulePath(gomod),
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*types.Package{},
		info:    &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	if l.modPath == "" {
		return nil, fperr.New(fperr.ClassInput, "%s: no module line", filepath.Join(root, "go.mod"))
	}
	var paths []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(p, 0)
		if _, noGo := err.(*build.NoGoError); noGo || err == nil && len(bp.GoFiles) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		paths = append(paths, path.Join(l.modPath, filepath.ToSlash(rel)))
		return err
	})
	if err != nil {
		return nil, fperr.Wrap(fperr.ClassInput, err)
	}
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, fperr.Wrapf(fperr.ClassInput, err, "type-check %s", p)
		}
	}

	// Edges: the functions each declaration references. Package-level
	// initializers, main and init are roots.
	var work []*types.Func
	decls := map[*types.Func]*ast.FuncDecl{}
	refs := map[*types.Func][]*types.Func{}
	uses := func(n ast.Node) (out []*types.Func) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := l.info.Uses[id].(*types.Func); ok {
					out = append(out, fn.Origin())
				}
			}
			return true
		})
		return out
	}
	for _, f := range l.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				work = append(work, uses(d)...)
				continue
			}
			fn, ok := l.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn], refs[fn] = fd, uses(fd)
			if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && fn.Pkg().Name() == "main") {
				work = append(work, fn)
			}
		}
	}
	work = append(work, l.interfaceMethods()...)
	reached := map[*types.Func]bool{}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if !reached[fn] {
			reached[fn] = true
			work = append(work, refs[fn]...)
		}
	}

	var findings []Finding
	for fn, fd := range decls {
		pos := fset.Position(fd.Name.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); reached[fn] || err == nil && strings.HasPrefix(filepath.ToSlash(rel), benchDir+"/") {
			continue
		}
		findings = append(findings, Finding{
			Pos:  pos,
			Code: "dead-func",
			Msg:  types.ObjectString(fn, types.RelativeTo(fn.Pkg())) + " is reached from no command; delete it, or move it into a _test.go file if only tests call it",
		})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	return findings, nil
}

// interfaceMethods returns the methods through which a type declared in
// the tree implements error or a named interface of a package in the
// tree's import closure, plus every method named Unwrap, Is or As.
func (l *loader) interfaceMethods() []*types.Func {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range l.pkgs {
		visit(p)
	}

	var roots []*types.Func
	for _, obj := range l.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		for i := 0; i < mset.Len(); i++ {
			if m := mset.At(i).Obj(); errorsMethods[m.Name()] {
				roots = append(roots, m.(*types.Func).Origin())
			}
		}
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				roots = append(roots, mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func).Origin())
			}
		}
	}
	return roots
}

// modulePath returns the module line of a go.mod file, or "".
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}
