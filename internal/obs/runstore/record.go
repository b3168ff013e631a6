// Package runstore is the repo's performance memory: an append-only,
// content-addressed store of run records.
//
// Every fpibench/fpisim/fpistat measurement so far has been a point in
// time; this package turns them into a trajectory. A Record wraps one run's
// guest-side results (the deterministic cycle ledger the uarch model
// produces) in an envelope carrying the git revision, machine config,
// scheme, analysis/fault mode, and a schema version, plus the host-side
// cost of producing it (wall time, allocations — see
// internal/obs/hostmetrics). Records are stored one JSON object per line in
// an append-only file; nothing is ever rewritten, so the store is a durable
// log that `fpistat trend/diff/report/gate` can mine.
//
// Content addressing: each record carries a SHA-256 hash over its
// deterministic content — everything except the host-noise fields (host
// metrics, creation time, free-form label). Recording the same source at
// the same revision under the same configuration twice therefore produces
// records with identical hashes, which is both a dedup key and an
// integrity check (Load verifies every line's hash and refuses tampered
// stores).
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"fpint/internal/obs/hostmetrics"
)

// Schema identifies the record layout. Bump on incompatible change; Load
// rejects records with a different schema rather than misreading them.
const Schema = "fpint-run/v1"

// Record kinds: how the measurement was produced.
const (
	// KindSim: a compile-and-simulate run of a mini-C program through the
	// cycle-level uarch model. Guest metrics are meaningful and exact.
	KindSim = "sim"
	// KindGoBench: a `go test -bench` result imported via
	// `fpistat record -gobench`. Only host metrics are meaningful (ns/op,
	// B/op, allocs/op); the guest block is zero.
	KindGoBench = "gobench"
)

// Timing modes: how KindSim guest cycles were produced. The empty string is
// the full detailed model (the historical default — omitempty keeps every
// pre-existing record hash stable); TimingFast marks sampled-timing
// fast-mode records, whose cycle counts are estimates with a bounded error
// and must never be gated against detailed records. TimingMode is part of
// the Key, so the gate treats the two modes as separate trend lines.
const (
	TimingDetailed = ""
	TimingFast     = "fast"
)

// Guest is the deterministic, simulator-produced half of a record: the
// functional result and the closed cycle ledger. Identical source, scheme,
// config, and toolchain produce identical Guest blocks, byte for byte —
// that determinism is what makes exact gating possible.
type Guest struct {
	Ret         int64            `json:"ret"`
	DynInstrs   int64            `json:"dynInstrs"`
	Cycles      int64            `json:"cycles"`
	IssueActive int64            `json:"issueActiveCycles"`
	Stalls      map[string]int64 `json:"stalls,omitempty"` // cause → cycles, summed over subsystems
	OffloadPct  float64          `json:"offloadPct"`
	Copies      int64            `json:"copies"`
	Dups        int64            `json:"dups"`
	Loads       int64            `json:"loads"`
	Stores      int64            `json:"stores"`
}

// StallTotal sums the per-cause stall cycles.
func (g *Guest) StallTotal() int64 {
	var n int64
	for _, v := range g.Stalls {
		n += v
	}
	return n
}

// LedgerClosed reports whether the guest cycle total equals issue-active
// plus total stall cycles — the same top-down accounting invariant the
// uarch model enforces internally. A record that fails this was corrupted
// or produced by a broken simulator.
func (g *Guest) LedgerClosed() bool {
	return g.Cycles == g.IssueActive+g.StallTotal()
}

// Host is the nondeterministic half of a record: what the run cost the
// simulator process itself. Excluded from the content hash.
type Host struct {
	Env     hostmetrics.Env      `json:"env"`
	Samples []hostmetrics.Sample `json:"samples"`
}

// MinWallNS returns the noise-robust minimum wall time over the samples.
func (h *Host) MinWallNS() int64 { return hostmetrics.MinWallNS(h.Samples) }

// MinAllocs returns the minimum allocation count over the samples.
func (h *Host) MinAllocs() uint64 { return hostmetrics.MinAllocs(h.Samples) }

// MinBytes returns the minimum allocated-bytes count over the samples.
func (h *Host) MinBytes() uint64 { return hostmetrics.MinBytes(h.Samples) }

// SimsPerSec derives simulated cycles per host second from the guest cycle
// count and the minimum wall time.
func (h *Host) SimsPerSec(cycles int64) float64 {
	return hostmetrics.SimsPerSec(cycles, h.MinWallNS())
}

// Record is one run in the store. The Hash field content-addresses the
// deterministic subset of the record; CreatedAt, Label, and Host are host
// noise and take no part in it.
type Record struct {
	Schema     string `json:"schema"`
	Hash       string `json:"hash"`
	Kind       string `json:"kind"`
	Rev        string `json:"rev"`
	Program    string `json:"program"`
	SourceSHA  string `json:"sourceSha,omitempty"`
	Config     string `json:"config"`
	Scheme     string `json:"scheme"`
	Analysis   bool   `json:"analysis"`
	FaultMode  string `json:"faultMode,omitempty"`
	TimingMode string `json:"timingMode,omitempty"`
	Guest      Guest  `json:"guest"`

	// Host-noise fields, excluded from Hash.
	Host      *Host  `json:"host,omitempty"`
	CreatedAt string `json:"createdAt,omitempty"` // RFC 3339, informational only
	Label     string `json:"label,omitempty"`

	// Seq is the record's position in its store, assigned by Load; it is
	// not serialized (append order is the line order).
	Seq int `json:"-"`
}

// hashedRecord is the deterministic subset a record's hash covers. Field
// order is fixed; encoding/json marshals struct fields in declaration order
// and map keys sorted, so the encoding — and therefore the hash — is
// canonical.
type hashedRecord struct {
	Schema     string `json:"schema"`
	Kind       string `json:"kind"`
	Rev        string `json:"rev"`
	Program    string `json:"program"`
	SourceSHA  string `json:"sourceSha,omitempty"`
	Config     string `json:"config"`
	Scheme     string `json:"scheme"`
	Analysis   bool   `json:"analysis"`
	FaultMode  string `json:"faultMode,omitempty"`
	TimingMode string `json:"timingMode,omitempty"`
	Guest      Guest  `json:"guest"`
}

// ComputeHash returns the content hash of the record's deterministic
// subset: "sha256:" plus 64 hex digits.
func (r *Record) ComputeHash() string {
	data, err := json.Marshal(hashedRecord{
		Schema: r.Schema, Kind: r.Kind, Rev: r.Rev, Program: r.Program,
		SourceSHA: r.SourceSHA, Config: r.Config, Scheme: r.Scheme,
		Analysis: r.Analysis, FaultMode: r.FaultMode,
		TimingMode: r.TimingMode, Guest: r.Guest,
	})
	if err != nil {
		// Marshaling plain structs and string-keyed maps cannot fail.
		panic(fmt.Sprintf("runstore: hash marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Seal fills in Schema and Hash, making the record ready to append.
func (r *Record) Seal() {
	r.Schema = Schema
	r.Hash = r.ComputeHash()
}

// VerifyHash reports whether the record's stored hash matches its content.
func (r *Record) VerifyHash() bool { return r.Hash == r.ComputeHash() }

// ShortHash returns a 12-hex-digit abbreviation for display.
func (r *Record) ShortHash() string {
	h := r.Hash
	if i := len("sha256:"); len(h) > i+12 {
		return h[i : i+12]
	}
	return h
}

// SourceHash hashes program source text for the SourceSHA field.
func SourceHash(src []byte) string {
	sum := sha256.Sum256(src)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Key identifies a measured configuration: all records sharing a Key are
// points on the same trend line.
type Key struct {
	Kind       string
	Program    string
	Config     string
	Scheme     string
	Analysis   bool
	FaultMode  string
	TimingMode string
}

// Key returns the record's trend-line identity.
func (r *Record) Key() Key {
	return Key{Kind: r.Kind, Program: r.Program, Config: r.Config,
		Scheme: r.Scheme, Analysis: r.Analysis, FaultMode: r.FaultMode,
		TimingMode: r.TimingMode}
}

// String renders the key compactly ("matmul/4-way/advanced+analysis").
func (k Key) String() string {
	s := k.Program + "/" + k.Config + "/" + k.Scheme
	if k.Analysis {
		s += "+analysis"
	}
	if k.FaultMode != "" {
		s += "+faults(" + k.FaultMode + ")"
	}
	if k.TimingMode != "" {
		s += "+" + k.TimingMode
	}
	if k.Kind == KindGoBench {
		s = k.Program + "/gobench"
	}
	return s
}

// SortKeys orders keys deterministically for display.
func SortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		if a.Analysis != b.Analysis {
			return !a.Analysis
		}
		if a.FaultMode != b.FaultMode {
			return a.FaultMode < b.FaultMode
		}
		return a.TimingMode < b.TimingMode
	})
}

// ByKey groups records by trend line, preserving append order within each.
func ByKey(recs []Record) map[Key][]Record {
	out := make(map[Key][]Record)
	for _, r := range recs {
		k := r.Key()
		out[k] = append(out[k], r)
	}
	return out
}

// LatestPerKey returns the last-appended record of every trend line.
func LatestPerKey(recs []Record) map[Key]Record {
	out := make(map[Key]Record)
	for _, r := range recs {
		out[r.Key()] = r
	}
	return out
}

// AtRev filters to records taken at the given revision (full or prefix
// match), keeping the latest per key.
func AtRev(recs []Record, rev string) []Record {
	latest := make(map[Key]Record)
	for _, r := range recs {
		if r.Rev == rev || (len(rev) >= 4 && len(rev) < len(r.Rev) && r.Rev[:len(rev)] == rev) {
			latest[r.Key()] = r
		}
	}
	return sortLatest(latest)
}

// FindHash returns the records whose hash matches the given "sha256:"- or
// bare-hex prefix (at least 4 hex digits).
func FindHash(recs []Record, prefix string) []Record {
	want := prefix
	if len(want) > len("sha256:") && want[:len("sha256:")] == "sha256:" {
		want = want[len("sha256:"):]
	}
	if len(want) < 4 {
		return nil
	}
	var out []Record
	for _, r := range recs {
		h := r.Hash[len("sha256:"):]
		if len(want) <= len(h) && h[:len(want)] == want {
			out = append(out, r)
		}
	}
	return out
}

// sortLatest flattens a latest-per-key map into key order.
func sortLatest(m map[Key]Record) []Record {
	keys := make([]Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	SortKeys(keys)
	out := make([]Record, 0, len(m))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// Revs returns the distinct revisions in the store, in first-appearance
// (append) order.
func Revs(recs []Record) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range recs {
		if !seen[r.Rev] {
			seen[r.Rev] = true
			out = append(out, r.Rev)
		}
	}
	return out
}
