package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fpint/internal/fperr"
	"fpint/internal/obs/hostmetrics"
	"fpint/internal/obs/runstore"
)

var update = flag.Bool("update", false, "rewrite the golden fpistat reports")

// goldenDir is resolved absolute at init so tests that chdir (the
// phasediff golden) still find the goldens.
var goldenDir = func() string {
	d, err := filepath.Abs(filepath.Join("..", "..", "testdata", "golden"))
	if err != nil {
		panic(err)
	}
	return d
}()

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join(goldenDir, name)
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
		t.Errorf("%s: output differs from golden (run with -update after verifying)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// Fixture revisions for the synthetic store.
const (
	fixRev1 = "aaaa1111bbbb"
	fixRev2 = "cccc2222dddd"
)

// fixtureHost builds a fully pinned host block: fixed env, fixed samples.
// Real host metrics are noisy; goldens need synthetic ones.
func fixtureHost(baseWallNS int64, baseAllocs uint64) *runstore.Host {
	h := &runstore.Host{Env: hostmetrics.Env{GoVersion: "go1.x", GOOS: "linux", GOARCH: "amd64", NumCPU: 8}}
	for i := int64(0); i < 3; i++ {
		h.Samples = append(h.Samples, hostmetrics.Sample{
			WallNS: baseWallNS + i*1_000_000,
			Allocs: baseAllocs + uint64(i)*17,
			Bytes:  (baseAllocs + uint64(i)*17) * 64,
		})
	}
	return h
}

// fixtureSim builds one sealed sim record with a closed cycle ledger.
func fixtureSim(rev, program, config string, cycles int64, wallNS int64, allocs uint64) runstore.Record {
	r := runstore.Record{
		Kind: runstore.KindSim, Rev: rev, Program: program,
		SourceSHA: runstore.SourceHash([]byte(program + " source")),
		Config:    config, Scheme: "advanced", Analysis: true,
		Guest: runstore.Guest{
			Ret: 42, DynInstrs: cycles * 2, Cycles: cycles,
			IssueActive: cycles * 8 / 10,
			Stalls:      map[string]int64{"dcache_miss": cycles * 15 / 100, "bpred_mispredict": cycles * 5 / 100},
			OffloadPct:  35.5, Copies: 120, Dups: 30, Loads: cycles / 4, Stores: cycles / 8,
		},
		Host:      fixtureHost(wallNS, allocs),
		CreatedAt: "2026-01-01T00:00:00Z",
	}
	r.Seal()
	return r
}

// fixtureGoBench builds one sealed host-only benchmark record.
func fixtureGoBench(rev, name string, wallNS int64, allocs uint64) runstore.Record {
	r := runstore.Record{
		Kind: runstore.KindGoBench, Rev: rev, Program: name,
		Config: "host", Scheme: "go",
		Host:      fixtureHost(wallNS, allocs),
		CreatedAt: "2026-01-01T00:00:00Z",
	}
	r.Seal()
	return r
}

// fixtureStore writes the two-revision synthetic store used by the golden
// tests: alpha improves from rev1 to rev2, beta regresses both guest cycles
// and host wall time, and a gobench record rides along.
func fixtureStore(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	store := runstore.Open(path)
	recs := []runstore.Record{
		fixtureSim(fixRev1, "alpha", "4-way", 100_000, 5_000_000, 3000),
		fixtureSim(fixRev1, "alpha", "8-way", 70_000, 8_000_000, 3100),
		fixtureSim(fixRev1, "beta", "4-way", 50_000, 4_000_000, 2000),
		fixtureGoBench(fixRev1, "BenchmarkPipelineLoop/4-way", 60_000_000, 3200),
		fixtureSim(fixRev2, "alpha", "4-way", 95_000, 4_800_000, 2900),
		fixtureSim(fixRev2, "alpha", "8-way", 66_500, 7_700_000, 3000),
		fixtureSim(fixRev2, "beta", "4-way", 60_000, 9_000_000, 2100),
		fixtureGoBench(fixRev2, "BenchmarkPipelineLoop/4-way", 61_000_000, 3200),
	}
	if err := store.Append(recs...); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTrendGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fpistatMain([]string{"trend", "-store", fixtureStore(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fpistat.trend.txt", buf.Bytes())
}

func TestDiffGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fpistatMain([]string{"diff", "-store", fixtureStore(t), fixRev1, fixRev2}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fpistat.diff.txt", buf.Bytes())
}

// TestDiffPairGolden pins the single-record head-to-head diff: hash
// selectors resolving to records on different trend lines compare the two
// records directly.
func TestDiffPairGolden(t *testing.T) {
	path := fixtureStore(t)
	recs, err := runstore.Open(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	// alpha/4-way at rev1 vs alpha/8-way at rev2: no shared key, one
	// record per side.
	a, b := recs[0].ShortHash(), recs[5].ShortHash()
	var buf bytes.Buffer
	if err := fpistatMain([]string{"diff", "-store", path, a, b}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fpistat.diffpair.txt", buf.Bytes())
}

func TestReportGoldenMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := fpistatMain([]string{"report", "-store", fixtureStore(t), "-md", "-"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fpistat.report.md", buf.Bytes())
}

func TestReportGoldenJSON(t *testing.T) {
	path := fixtureStore(t)
	var first bytes.Buffer
	if err := fpistatMain([]string{"report", "-store", path, "-json", "-"}, &first); err != nil {
		t.Fatal(err)
	}
	// Byte-for-byte deterministic across invocations.
	var second bytes.Buffer
	if err := fpistatMain([]string{"report", "-store", path, "-json", "-"}, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("report -json is not deterministic across runs")
	}
	checkGolden(t, "fpistat.report.json", first.Bytes())
}

// TestGateGoldenRegression pins the gate's failure surface: beta regressed
// from rev1 to rev2 (guest cycles +20%, host wall +125%), so the gate must
// render REGRESSED rows and fail with the regression exit class.
func TestGateGoldenRegression(t *testing.T) {
	var buf bytes.Buffer
	err := fpistatMain([]string{"gate", "-store", fixtureStore(t), "-baseline-rev", fixRev1}, &buf)
	checkGolden(t, "fpistat.gate.txt", buf.Bytes())
	if err == nil {
		t.Fatal("gate passed on a store with a regressed trend line")
	}
	if got := fperr.ClassOf(err); got != fperr.ClassRegression {
		t.Fatalf("gate error class = %v, want ClassRegression", got)
	}
	if got := fperr.ExitCode(err); got != 5 {
		t.Fatalf("gate exit code = %d, want 5", got)
	}
}

// TestGatePasses checks the zero-exit path: gating a store against an
// identical baseline store finds nothing.
func TestGatePasses(t *testing.T) {
	path := fixtureStore(t)
	basePath := filepath.Join(t.TempDir(), "base.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fpistatMain([]string{"gate", "-store", path, "-baseline", basePath}, &buf); err != nil {
		t.Fatalf("gate against identical baseline failed: %v", err)
	}
	if !strings.Contains(buf.String(), "gate: ok") {
		t.Fatalf("missing ok verdict:\n%s", buf.String())
	}
}

// TestRecordHashStability runs the real record pipeline twice on the same
// source at a pinned revision and demands identical content hashes — host
// noise (wall time, allocations) must not leak into the hash.
func TestRecordHashStability(t *testing.T) {
	src := filepath.Join("..", "..", "testdata", "bitcount.c")
	dir := t.TempDir()
	var stores [2]string
	for i := range stores {
		stores[i] = filepath.Join(dir, "runs"+string(rune('a'+i))+".jsonl")
		var buf bytes.Buffer
		err := fpistatMain([]string{"record", "-store", stores[i], "-repeat", "1", "-rev", "feedfacecafe", src}, &buf)
		if err != nil {
			t.Fatalf("record #%d: %v", i+1, err)
		}
	}
	a, err := runstore.Open(stores[0]).Load()
	if err != nil {
		t.Fatal(err)
	}
	b, err := runstore.Open(stores[1]).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Hash != b[i].Hash {
			t.Errorf("record %d (%s): hash differs across identical recordings:\n  %s\n  %s",
				i, a[i].Key(), a[i].Hash, b[i].Hash)
		}
		if !a[i].VerifyHash() {
			t.Errorf("record %d: stored hash does not verify", i)
		}
		if !a[i].Guest.LedgerClosed() {
			t.Errorf("record %d (%s): cycle ledger not closed: cycles=%d issueActive=%d stalls=%d",
				i, a[i].Key(), a[i].Guest.Cycles, a[i].Guest.IssueActive, a[i].Guest.StallTotal())
		}
		if a[i].Host == nil || len(a[i].Host.Samples) != 1 {
			t.Errorf("record %d: want exactly 1 host sample, got %+v", i, a[i].Host)
		}
	}
}

// TestRecordSameBasename records two programs that share a basename but
// not a body in one invocation. The measuring Suite caches frontends, so a
// cache keyed by name would time b/x.c with a/x.c's module; each record
// must carry its own SourceSHA and its own guest block.
func TestRecordSameBasename(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for _, limit := range []int{200, 300} {
		sub := filepath.Join(dir, fmt.Sprint(limit))
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		src := fmt.Sprintf(`int composite[%[1]d];
int main() {
	int count = 0;
	for (int i = 2; i < %[1]d; i++) {
		if (composite[i] == 0) {
			count++;
			for (int j = i + i; j < %[1]d; j += i) composite[j] = 1;
		}
	}
	return count;
}
`, limit)
		file := filepath.Join(sub, "x.c")
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}
	storePath := filepath.Join(dir, "runs.jsonl")
	var buf bytes.Buffer
	args := append([]string{"record", "-store", storePath, "-repeat", "1", "-rev", "feedfacecafe"}, files...)
	if err := fpistatMain(args, &buf); err != nil {
		t.Fatal(err)
	}
	recs, err := runstore.Open(storePath).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("want 4 records (2 files × 2 configs), got %d", len(recs))
	}
	// Records come per file, then per config.
	for k := 0; k < 2; k++ {
		a, b := recs[k], recs[k+2]
		if a.Program != "x" || b.Program != "x" || a.Config != b.Config {
			t.Fatalf("unexpected record order: %s, %s", a.Key(), b.Key())
		}
		if a.SourceSHA == b.SourceSHA {
			t.Errorf("%s: both files recorded with source hash %s", a.Config, a.SourceSHA)
		}
		if reflect.DeepEqual(a.Guest, b.Guest) {
			t.Errorf("%s: both files recorded the same guest block", a.Config)
		}
		// 46 primes below 200, 62 below 300.
		if a.Guest.Ret != 46 || b.Guest.Ret != 62 {
			t.Errorf("%s: returned %d and %d, want 46 and 62", a.Config, a.Guest.Ret, b.Guest.Ret)
		}
	}
}

// TestGoBenchImport pins the -gobench parser against a realistic
// -benchmem transcript, including repeated -count lines that must merge
// into one record and a line whose custom metric sits between ns/op and
// B/op.
func TestGoBenchImport(t *testing.T) {
	benchFile := filepath.Join(t.TempDir(), "bench.txt")
	transcript := `goos: linux
goarch: amd64
pkg: fpint/internal/uarch
BenchmarkPipelineLoop/4-way-8   	      18	  62848819 ns/op	28170553 B/op	    3148 allocs/op
BenchmarkPipelineLoop/4-way-8   	      19	  60148819 ns/op	28170553 B/op	    3148 allocs/op
BenchmarkPipelineLoop/8-way-8   	      22	  51944477 ns/op	24789720 B/op	    3146 allocs/op
pkg: fpint
BenchmarkTimingSimulator-2   	       8	 134233627 ns/op	   5963774 sim-insts/s	20019144 B/op	      55 allocs/op
PASS
`
	if err := os.WriteFile(benchFile, []byte(transcript), 0o644); err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(t.TempDir(), "runs.jsonl")
	var buf bytes.Buffer
	err := fpistatMain([]string{"record", "-store", storePath, "-rev", "feedfacecafe", "-gobench", benchFile}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := runstore.Open(storePath).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("want 3 merged records, got %d", len(recs))
	}
	r := recs[0]
	if r.Kind != runstore.KindGoBench || r.Program != "BenchmarkPipelineLoop/4-way" {
		t.Fatalf("unexpected first record: %+v", r)
	}
	if len(r.Host.Samples) != 2 {
		t.Fatalf("repeated lines did not merge: %d samples", len(r.Host.Samples))
	}
	if got := r.Host.MinWallNS(); got != 60148819 {
		t.Fatalf("min wall = %d, want 60148819", got)
	}
	if got := r.Host.MinAllocs(); got != 3148 {
		t.Fatalf("min allocs = %d, want 3148", got)
	}
	ts := recs[2]
	if ts.Program != "BenchmarkTimingSimulator" || len(ts.Host.Samples) != 1 {
		t.Fatalf("unexpected custom-metric record: %+v", ts)
	}
	if s := ts.Host.Samples[0]; s.WallNS != 134233627 || s.Bytes != 20019144 || s.Allocs != 55 {
		t.Fatalf("custom-metric line read as wall %d, bytes %d, allocs %d; want 134233627, 20019144, 55", s.WallNS, s.Bytes, s.Allocs)
	}
}

// TestGateRefusesEmptyComparison checks that a gate whose stores share no
// trend line is an input error rather than a vacuous pass.
func TestGateRefusesEmptyComparison(t *testing.T) {
	other := filepath.Join(t.TempDir(), "other.jsonl")
	if err := runstore.Open(other).Append(fixtureSim(fixRev1, "gamma", "4-way", 10_000, 1_000_000, 100)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := fpistatMain([]string{"gate", "-store", fixtureStore(t), "-baseline", other}, &buf)
	if got := fperr.ClassOf(err); got != fperr.ClassInput {
		t.Fatalf("class %v (err %v), want ClassInput", got, err)
	}
}

// TestGateZeroHostTolerance checks that -host-tolerance 0 tolerates no
// host increase: a record with 10% more allocations than its baseline
// fails the gate at 0 and 5, and passes at the default 25.
func TestGateZeroHostTolerance(t *testing.T) {
	dir := t.TempDir()
	base, cur := filepath.Join(dir, "base.jsonl"), filepath.Join(dir, "cur.jsonl")
	if err := runstore.Open(base).Append(fixtureSim(fixRev1, "alpha", "4-way", 100_000, 5_000_000, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := runstore.Open(cur).Append(fixtureSim(fixRev2, "alpha", "4-way", 100_000, 5_000_000, 3300)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tol  string
		want int
	}{{"0", 5}, {"5", 5}, {"25", 0}} {
		var buf bytes.Buffer
		err := fpistatMain([]string{"gate", "-store", cur, "-baseline", base, "-host-tolerance", c.tol}, &buf)
		if got := fperr.ExitCode(err); got != c.want {
			t.Errorf("gate -host-tolerance %s: exit %d (err %v), want %d\n%s", c.tol, got, err, c.want, buf.String())
		}
	}
}

// TestGateRejectsBadTolerance checks that a tolerance which is not a
// finite percentage >= 0 is a usage error. Against NaN every "change >
// tolerance" test is false, so such a gate would pass the fixture's
// regressed beta line instead of exiting 5.
func TestGateRejectsBadTolerance(t *testing.T) {
	store := fixtureStore(t)
	for _, args := range [][]string{
		{"-host-tolerance", "NaN"},
		{"-guest-tolerance", "NaN"},
		{"-host-tolerance", "+Inf"},
		{"-guest-tolerance", "-1"},
		{"-wall-floor", "-1ms"},
	} {
		var buf bytes.Buffer
		err := fpistatMain(append([]string{"gate", "-store", store, "-baseline-rev", fixRev1}, args...), &buf)
		if got := fperr.ExitCode(err); got != 1 {
			t.Errorf("gate %v: exit %d (err %v), want 1\n%s", args, got, err, buf.String())
		}
	}
}
