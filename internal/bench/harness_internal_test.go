package bench

import (
	"sync"
	"testing"

	"fpint/internal/codegen"
)

// TestConcurrentCompilesShareModule: compiles of one cached frontend under
// every scheme, analyses off and on, run at once on one Suite, and each
// yields the program a lone compile on a fresh Suite does. Compiling only
// reads the shared module, so under -race this also finds a write to it.
func TestConcurrentCompilesShareModule(t *testing.T) {
	w := Lookup("li")
	var opts []codegen.Options
	for _, name := range codegen.SchemeNames() {
		scheme, err := codegen.ParseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, codegen.Options{Scheme: scheme}, codegen.Options{Scheme: scheme, Analysis: true})
	}

	s := NewSuite()
	if _, err := s.frontend(w); err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.compile(w, o)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Prog.Disassemble()
		}()
	}
	wg.Wait()

	for i, o := range opts {
		if errs[i] != nil {
			t.Fatalf("%v analysis=%v: %v", o.Scheme, o.Analysis, errs[i])
		}
		res, err := NewSuite().compile(w, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Prog.Disassemble() != got[i] {
			t.Errorf("%v analysis=%v: the concurrent compile differs from a lone one", o.Scheme, o.Analysis)
		}
	}
}
