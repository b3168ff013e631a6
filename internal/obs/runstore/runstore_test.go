package runstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpint/internal/obs/hostmetrics"
)

func testGuest(cycles int64) Guest {
	return Guest{
		Ret: 42, DynInstrs: 1000, Cycles: cycles,
		IssueActive: cycles - 30,
		Stalls:      map[string]int64{"raw-wait": 20, "dcache": 10},
		OffloadPct:  12.5, Copies: 3, Dups: 1, Loads: 100, Stores: 50,
	}
}

func testRecord(rev string, cycles int64) Record {
	r := Record{
		Kind: KindSim, Rev: rev, Program: "matmul",
		SourceSHA: SourceHash([]byte("int main() {}")),
		Config:    "4-way", Scheme: "advanced", Analysis: true,
		Guest: testGuest(cycles),
		Host: &Host{
			Env: hostmetrics.Env{GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", NumCPU: 8},
			Samples: []hostmetrics.Sample{
				{WallNS: 5_000_000, Allocs: 1200, Bytes: 80_000},
				{WallNS: 4_000_000, Allocs: 1180, Bytes: 79_000},
				{WallNS: 6_000_000, Allocs: 1210, Bytes: 81_000},
			},
		},
		CreatedAt: "2026-08-08T00:00:00Z",
	}
	r.Seal()
	return r
}

func TestHashStableAcrossHostNoise(t *testing.T) {
	a := testRecord("abc123def456", 5000)
	b := testRecord("abc123def456", 5000)
	// Perturb every host-noise field: the hash must not move.
	b.CreatedAt = "2030-01-01T12:34:56Z"
	b.Label = "a different annotation"
	b.Host.Samples[0].WallNS = 999_999_999
	b.Host.Samples[1].Allocs = 7
	b.Hash = ""
	b.Seal()
	if a.Hash != b.Hash {
		t.Errorf("host-noise fields leaked into the content hash:\n a=%s\n b=%s", a.Hash, b.Hash)
	}
	if !strings.HasPrefix(a.Hash, "sha256:") || len(a.Hash) != len("sha256:")+64 {
		t.Errorf("hash shape wrong: %q", a.Hash)
	}
}

func TestHashSensitiveToContent(t *testing.T) {
	base := testRecord("abc123def456", 5000)
	mutate := []func(*Record){
		func(r *Record) { r.Guest.Cycles++ },
		func(r *Record) { r.Rev = "feedfeedfeed" },
		func(r *Record) { r.Config = "8-way" },
		func(r *Record) { r.Scheme = "basic" },
		func(r *Record) { r.Analysis = false },
		func(r *Record) { r.FaultMode = "seed=1,kind=any,rate=0.001" },
		func(r *Record) { r.SourceSHA = SourceHash([]byte("int main() { return 1; }")) },
		func(r *Record) { r.Guest.Stalls["raw-wait"]++ },
	}
	for i, m := range mutate {
		r := testRecord("abc123def456", 5000)
		m(&r)
		r.Hash = ""
		r.Seal()
		if r.Hash == base.Hash {
			t.Errorf("mutation %d did not change the content hash", i)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "runs.jsonl")
	s := Open(path)
	r1 := testRecord("abc123def456", 5000)
	r2 := testRecord("abc123def456", 5000)
	r2.Config = "8-way"
	r2.Hash = ""
	r2.Seal()
	if err := s.Append(r1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(r2); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d records, want 2", len(got))
	}
	if got[0].Seq != 0 || got[1].Seq != 1 {
		t.Errorf("Seq not assigned in append order: %d, %d", got[0].Seq, got[1].Seq)
	}
	if got[0].Hash != r1.Hash || got[1].Hash != r2.Hash {
		t.Error("hashes did not survive the round trip")
	}
	if got[0].Guest.Stalls["raw-wait"] != 20 || got[0].Host == nil || len(got[0].Host.Samples) != 3 {
		t.Errorf("record content did not survive the round trip: %+v", got[0])
	}
	if got[0].CreatedAt != "2026-08-08T00:00:00Z" {
		t.Errorf("CreatedAt lost: %q", got[0].CreatedAt)
	}
}

func TestLoadMissingStoreIsEmpty(t *testing.T) {
	s := Open(filepath.Join(t.TempDir(), "nope.jsonl"))
	recs, err := s.Load()
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing store: recs=%d err=%v, want empty and nil", len(recs), err)
	}
}

func TestLoadRejectsTamperedStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	s := Open(path)
	if err := s.Append(testRecord("abc123def456", 5000)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Quietly improve our numbers: flip a digit of the cycle count.
	tampered := strings.Replace(string(data), `"cycles":5000`, `"cycles":4000`, 1)
	if tampered == string(data) {
		t.Fatal("test setup: cycle field not found in encoded record")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("tampered store loaded without error (err=%v)", err)
	}
}

// TestLoadRejectsUnknownSchema pins the refusal to read records of another
// layout: comparing incompatible layouts would gate on confident nonsense.
func TestLoadRejectsUnknownSchema(t *testing.T) {
	r := testRecord("abc123def456", 5000)
	r.Schema = "fpint-run/v999"
	r.Hash = r.ComputeHash()
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFrom(strings.NewReader(string(line) + "\n")); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("err = %v, want schema mismatch", err)
	}
}

func TestAppendRejectsLyingHash(t *testing.T) {
	r := testRecord("abc123def456", 5000)
	r.Guest.Cycles = 1 // content no longer matches the sealed hash
	s := Open(filepath.Join(t.TempDir(), "runs.jsonl"))
	if err := s.Append(r); err == nil {
		t.Fatal("Append accepted a record whose hash does not match its content")
	}
}

func TestLedgerClosed(t *testing.T) {
	g := testGuest(5000)
	if !g.LedgerClosed() {
		t.Fatalf("test guest should close: cycles=%d active=%d stalls=%d",
			g.Cycles, g.IssueActive, g.StallTotal())
	}
	g.IssueActive--
	if g.LedgerClosed() {
		t.Fatal("broken ledger reported as closed")
	}
}

func TestSelection(t *testing.T) {
	r1 := testRecord("aaaa11112222", 5000)
	r2 := testRecord("aaaa11112222", 5000)
	r2.Config = "8-way"
	r2.Hash = ""
	r2.Seal()
	r3 := testRecord("bbbb33334444", 4800) // same key as r1, newer rev
	recs := []Record{r1, r2, r3}
	for i := range recs {
		recs[i].Seq = i
	}

	latest := LatestPerKey(recs)
	if len(latest) != 2 {
		t.Fatalf("LatestPerKey: %d keys, want 2", len(latest))
	}
	if got := latest[r1.Key()]; got.Rev != "bbbb33334444" {
		t.Errorf("latest for %v is rev %s, want bbbb33334444", r1.Key(), got.Rev)
	}

	at := AtRev(recs, "aaaa")
	if len(at) != 2 {
		t.Fatalf("AtRev(aaaa): %d records, want 2", len(at))
	}
	if got := AtRev(recs, "bbbb33334444"); len(got) != 1 || got[0].Guest.Cycles != 4800 {
		t.Fatalf("AtRev(full rev) = %v", got)
	}

	if got := FindHash(recs, r1.Hash[:len("sha256:")+8]); len(got) != 1 || got[0].Config != "4-way" {
		t.Fatalf("FindHash by prefix failed: %v", got)
	}
	if got := FindHash(recs, "sha"); got != nil {
		t.Fatalf("FindHash must refuse prefixes under 4 hex digits, got %v", got)
	}

	revs := Revs(recs)
	if len(revs) != 2 || revs[0] != "aaaa11112222" || revs[1] != "bbbb33334444" {
		t.Fatalf("Revs = %v", revs)
	}
}

func TestGateVerdicts(t *testing.T) {
	base := []Record{testRecord("aaaa11112222", 5000)}
	// Same guest, same host: clean gate.
	cur := []Record{testRecord("bbbb33334444", 5000)}
	rep := Gate(base, cur, GateOptions{})
	if len(rep.Regressions()) != 0 {
		t.Fatalf("identical records regressed: %+v", rep.Regressions())
	}

	// One guest cycle more: exact gate must fail (tolerance 0).
	worse := testRecord("bbbb33334444", 5001)
	rep = Gate(base, []Record{worse}, GateOptions{})
	reg := rep.Regressions()
	if len(reg) != 1 || reg[0].Metric != "guest.cycles" {
		t.Fatalf("1-cycle guest regression not caught: %+v", reg)
	}

	// Within a loose guest tolerance it passes again.
	rep = Gate(base, []Record{worse}, GateOptions{GuestTolerancePct: 1})
	if len(rep.Regressions()) != 0 {
		t.Fatalf("regression within tolerance still failed: %+v", rep.Regressions())
	}

	// Host wall blowup beyond threshold and above the noise floor.
	slow := testRecord("bbbb33334444", 5000)
	for i := range slow.Host.Samples {
		slow.Host.Samples[i].WallNS *= 10
	}
	rep = Gate(base, []Record{slow}, GateOptions{})
	reg = rep.Regressions()
	if len(reg) != 1 || reg[0].Metric != "host.min_wall_ns" {
		t.Fatalf("10x host wall regression not caught: %+v", reg)
	}

	// The same blowup under the wall-time floor is noise, not a finding.
	tiny := testRecord("aaaa11112222", 5000)
	tinySlow := testRecord("bbbb33334444", 5000)
	for i := range tiny.Host.Samples {
		tiny.Host.Samples[i].WallNS = 40_000 // 40µs
		tinySlow.Host.Samples[i].WallNS = 120_000
	}
	rep = Gate([]Record{tiny}, []Record{tinySlow}, GateOptions{})
	if len(rep.Regressions()) != 0 {
		t.Fatalf("sub-floor host jitter treated as regression: %+v", rep.Regressions())
	}

	// Alloc regression beyond threshold.
	leaky := testRecord("bbbb33334444", 5000)
	for i := range leaky.Host.Samples {
		leaky.Host.Samples[i].Allocs *= 3
	}
	rep = Gate(base, []Record{leaky}, GateOptions{})
	reg = rep.Regressions()
	if len(reg) != 1 || reg[0].Metric != "host.min_allocs" {
		t.Fatalf("3x alloc regression not caught: %+v", reg)
	}

	// Keys on one side only are skipped, not failed.
	other := testRecord("bbbb33334444", 5000)
	other.Program = "sieve"
	other.Hash = ""
	other.Seal()
	rep = Gate(base, []Record{other}, GateOptions{})
	if len(rep.Deltas) != 0 || len(rep.Skipped) != 2 {
		t.Fatalf("disjoint keys: deltas=%d skipped=%d, want 0/2", len(rep.Deltas), len(rep.Skipped))
	}
}

func TestGitRevision(t *testing.T) {
	dir := t.TempDir()
	git := filepath.Join(dir, ".git")
	if err := os.MkdirAll(filepath.Join(git, "refs", "heads"), 0o755); err != nil {
		t.Fatal(err)
	}
	rev := "0123456789abcdef0123456789abcdef01234567"
	os.WriteFile(filepath.Join(git, "HEAD"), []byte("ref: refs/heads/main\n"), 0o644)
	os.WriteFile(filepath.Join(git, "refs", "heads", "main"), []byte(rev+"\n"), 0o644)
	sub := filepath.Join(dir, "a", "b")
	os.MkdirAll(sub, 0o755)
	if got := GitRevision(sub); got != rev[:12] {
		t.Errorf("GitRevision(loose ref) = %q, want %q", got, rev[:12])
	}

	// Packed refs.
	os.Remove(filepath.Join(git, "refs", "heads", "main"))
	packed := "# pack-refs with: peeled fully-peeled sorted\nfeedfacefeedfacefeedfacefeedfacefeedface refs/heads/main\n"
	os.WriteFile(filepath.Join(git, "packed-refs"), []byte(packed), 0o644)
	if got := GitRevision(dir); got != "feedfacefeed" {
		t.Errorf("GitRevision(packed ref) = %q", got)
	}

	// Detached HEAD.
	os.WriteFile(filepath.Join(git, "HEAD"), []byte(rev+"\n"), 0o644)
	if got := GitRevision(dir); got != rev[:12] {
		t.Errorf("GitRevision(detached) = %q", got)
	}

	// No repo at all.
	if got := GitRevision(filepath.Join(t.TempDir())); got != "unknown" {
		t.Errorf("GitRevision(no repo) = %q, want unknown", got)
	}

	// This very repository must resolve to something real.
	if got := GitRevision("."); got == "unknown" || len(got) != 12 {
		t.Errorf("GitRevision(repo) = %q, want a 12-digit revision", got)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Kind: KindSim, Program: "matmul", Config: "4-way", Scheme: "advanced", Analysis: true}
	if got := k.String(); got != "matmul/4-way/advanced+analysis" {
		t.Errorf("Key.String() = %q", got)
	}
	k.FaultMode = "seed=1"
	if got := k.String(); got != "matmul/4-way/advanced+analysis+faults(seed=1)" {
		t.Errorf("Key.String() with faults = %q", got)
	}
	gb := Key{Kind: KindGoBench, Program: "BenchmarkPipelineLoop/4way"}
	if got := gb.String(); got != "BenchmarkPipelineLoop/4way/gobench" {
		t.Errorf("gobench Key.String() = %q", got)
	}
}
