package codegen

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"fpint/internal/core"
	"fpint/internal/fperr"
	"fpint/internal/ir"
)

// Fallback records one trip down the degradation ladder: which scheme the
// user asked for, which one actually produced the program, and why each
// abandoned rung failed.
type Fallback struct {
	Requested Scheme
	Used      Scheme
	// Causes holds one entry per abandoned rung, in ladder order.
	Causes []string
}

// MarshalJSON renders schemes by name so the -json audit document is
// readable without the Scheme enum.
func (f *Fallback) MarshalJSON() ([]byte, error) {
	type doc struct {
		Requested string   `json:"requested"`
		Used      string   `json:"used"`
		Causes    []string `json:"causes"`
	}
	return json.Marshal(doc{Requested: f.Requested.String(), Used: f.Used.String(), Causes: f.Causes})
}

// ladder returns the schemes to try, strongest first: each rung removes the
// machinery the previous one depended on, ending at conventional INT-only
// compilation, which has no partitioner to fail.
func ladder(s Scheme) []Scheme {
	switch s {
	case SchemeOptimal:
		return []Scheme{SchemeOptimal, SchemeAdvanced, SchemeBasic, SchemeNone}
	case SchemeBalanced:
		return []Scheme{SchemeBalanced, SchemeAdvanced, SchemeBasic, SchemeNone}
	case SchemeAdvanced:
		return []Scheme{SchemeAdvanced, SchemeBasic, SchemeNone}
	case SchemeBasic:
		return []Scheme{SchemeBasic, SchemeNone}
	}
	return []Scheme{SchemeNone}
}

// compileVerified runs Compile, which verifies every function's partition,
// verifies each partition again after a caller's PartitionHook has mutated
// it, and converts partitioner panics into classified errors instead of
// crashes.
func compileVerified(mod *ir.Module, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fperr.New(fperr.ClassInternal, "%s scheme panicked: %v", opts.Scheme, r)
		}
	}()
	var verifyErrs []error
	if userHook := opts.PartitionHook; userHook != nil {
		opts.PartitionHook = func(fn string, part *core.Partition) {
			userHook(fn, part)
			if verr := core.VerifyPartition(part); verr != nil {
				verifyErrs = append(verifyErrs, verr)
			}
		}
	}
	res, err = Compile(mod, opts)
	if err != nil {
		return nil, fperr.Wrap(fperr.ClassInternal, err)
	}
	if len(verifyErrs) > 0 {
		return nil, fperr.Wrap(fperr.ClassInternal, errors.Join(verifyErrs...))
	}
	return res, nil
}

// CompileWithFallback compiles mod down the degradation ladder. The
// requested scheme runs first, checked by the static partition verifier; if
// its partitioner panics or emits a partition violating the paper's
// invariants, the next-simpler scheme is tried — advanced falls back to
// basic, then to conventional INT-only compilation — so a partitioner bug
// degrades performance, never correctness, and never crashes the toolchain.
//
// On fallback, Result.Fallback is set and a note is appended to every
// surviving partition audit; callers that must distinguish degraded success
// (exit code 4) use Result.DegradedError. The returned error is non-nil
// only when every rung — including conventional compilation — failed, and
// is then classified internal.
func CompileWithFallback(mod *ir.Module, opts Options) (*Result, error) {
	requested := opts.Scheme
	var causes []string
	for _, rung := range ladder(requested) {
		opts.Scheme = rung
		res, err := compileVerified(mod, opts)
		if err != nil {
			causes = append(causes, fmt.Sprintf("%s: %v", rung, err))
			continue
		}
		if rung != requested {
			res.Fallback = &Fallback{Requested: requested, Used: rung, Causes: causes}
			note := fmt.Sprintf("degraded: %s scheme failed, compiled with %s instead (%s)",
				requested, rung, strings.Join(causes, "; "))
			for _, p := range res.Partitions {
				if p != nil && p.Audit != nil {
					p.Audit.Notes = append(p.Audit.Notes, note)
				}
			}
		}
		return res, nil
	}
	return nil, fperr.New(fperr.ClassInternal,
		"every scheme failed, including conventional compilation: %s", strings.Join(causes, "; "))
}

// CompileSourceWithFallback is CompileSource with the degradation ladder:
// frontend failures are input errors; backend failures walk the ladder.
// Frontend stages report to opts.PassLog when one is attached, so a traced
// compile+simulate job carries the full frontend→backend span sequence.
func CompileSourceWithFallback(src string, opts Options) (*Result, *ir.Module, error) {
	mod, run, err := FrontendPipelineBudgeted(src, opts.PassLog, opts.Frontend)
	if err != nil {
		return nil, nil, fperr.Wrap(fperr.ClassInput, err)
	}
	if opts.Profile == nil {
		opts.Profile = run.Profile
	}
	r, err := CompileWithFallback(mod, opts)
	return r, mod, err
}

// DegradedError returns a degraded-class error describing the fallback this
// result took, or nil when the requested scheme succeeded directly. The
// program in the result is correct either way; the error class exists so
// scripts observe silent scheme downgrades (exit code 4).
func (r *Result) DegradedError() error {
	if r == nil {
		return nil
	}
	if r.Fallback != nil {
		return fperr.New(fperr.ClassDegraded, "compiled with %s after %s failed: %s",
			r.Fallback.Used, r.Fallback.Requested, strings.Join(r.Fallback.Causes, "; "))
	}
	// SchemeOptimal compiles successfully even when the exact search hits
	// its caps, but the result is then only greedy-optimal — surface that
	// the same way a ladder fallback is surfaced (exit code 4).
	var degraded []string
	for _, name := range sortedReportNames(r.Oracle) {
		if err := r.Oracle[name].Err(); err != nil {
			degraded = append(degraded, err.Error())
		}
	}
	if len(degraded) > 0 {
		return fperr.New(fperr.ClassDegraded, "%s", strings.Join(degraded, "; "))
	}
	return nil
}

// sortedReportNames returns the oracle report keys in deterministic order.
func sortedReportNames(m map[string]*core.OracleReport) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
