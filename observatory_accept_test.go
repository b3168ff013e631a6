package fpint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/fperr"
	"fpint/internal/obs/runstore"
	"fpint/internal/uarch"
)

// Acceptance tests for the performance observatory: every testdata program,
// run on both Table 1 machine configurations through the same measurement
// path `fpistat record` uses, must produce a record whose cycle ledger
// closes, whose host metrics are present, and whose content hash is stable
// across repeated sealing.
func TestObservatoryRecordsCloseAndHashStably(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	sort.Strings(files)
	const repeat = 2
	s := bench.NewSuite()
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(file), ".c")
		for _, cfg := range []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} {
			cfg := cfg
			t.Run(name+"/"+cfg.Name, func(t *testing.T) {
				w := &bench.Workload{Name: name, Src: string(src)}
				guest, host, err := s.Record(w, codegen.SchemeAdvanced, true, cfg, repeat)
				if err != nil {
					t.Fatalf("measure: %v", err)
				}
				if !guest.LedgerClosed() {
					t.Errorf("cycle ledger not closed: cycles=%d issueActive=%d stalls=%d",
						guest.Cycles, guest.IssueActive, guest.StallTotal())
				}
				if guest.Cycles <= 0 || guest.DynInstrs <= 0 {
					t.Errorf("degenerate guest block: %+v", guest)
				}
				if host == nil || len(host.Samples) != repeat {
					t.Fatalf("want %d host samples, got %+v", repeat, host)
				}
				for i, s := range host.Samples {
					if s.WallNS <= 0 {
						t.Errorf("sample %d: nonpositive wall time %d", i, s.WallNS)
					}
				}
				rec := runstore.Record{
					Kind: runstore.KindSim, Rev: "feedfacecafe", Program: name,
					SourceSHA: runstore.SourceHash(src),
					Config:    cfg.Name, Scheme: codegen.SchemeAdvanced.String(), Analysis: true,
					Guest: guest, Host: host,
				}
				rec.Seal()
				first := rec.Hash
				// Re-sealing after mutating only host-noise fields must not
				// move the hash.
				rec.CreatedAt = "2026-01-01T00:00:00Z"
				rec.Label = "second sealing"
				rec.Host = nil
				rec.Seal()
				if rec.Hash != first {
					t.Errorf("content hash not stable across sealing: %s vs %s", first, rec.Hash)
				}
			})
		}
	}
}

// TestObservatoryGateFlagsRegression pins the failure taxonomy end to end:
// a synthetically regressed record must gate to ClassRegression, which the
// CLIs map to exit code 5.
func TestObservatoryGateFlagsRegression(t *testing.T) {
	base := runstore.Record{
		Kind: runstore.KindSim, Rev: "aaaa1111bbbb", Program: "synthetic",
		Config: "4-way", Scheme: "advanced", Analysis: true,
		Guest: runstore.Guest{Cycles: 10_000, IssueActive: 10_000, DynInstrs: 20_000},
	}
	base.Seal()
	regressed := base
	regressed.Rev = "cccc2222dddd"
	regressed.Guest.Cycles = 11_000
	regressed.Guest.IssueActive = 11_000
	regressed.Seal()

	rep := runstore.Gate([]runstore.Record{base}, []runstore.Record{regressed}, runstore.GateOptions{})
	reg := rep.Regressions()
	if len(reg) != 1 || reg[0].Metric != "guest.cycles" {
		t.Fatalf("want exactly one guest.cycles regression, got %+v", reg)
	}
	err := fperr.New(fperr.ClassRegression, "%d metric(s) regressed beyond tolerance", len(reg))
	if fperr.ClassOf(err) != fperr.ClassRegression {
		t.Fatalf("class = %v, want ClassRegression", fperr.ClassOf(err))
	}
	if got := fperr.ExitCode(err); got != 5 {
		t.Fatalf("exit code = %d, want 5 (distinct from internal=3)", got)
	}
}
