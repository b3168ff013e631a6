// Package obs is the repo's standard-library-only telemetry subsystem.
//
// It provides three building blocks that the rest of the stack threads
// through:
//
//   - a metrics Registry (counters, gauges, fixed-bucket histograms) with
//     deterministic JSON and CSV encoders — keys are emitted sorted and
//     floats are formatted with strconv, so identical runs produce
//     byte-identical documents (the property the golden tests pin down);
//   - a Chrome trace-event encoder (trace.go) that renders pipeline
//     journals into Perfetto/chrome://tracing-loadable JSON;
//   - a compiler pass log (passlog.go) recording per-pass wall time and IR
//     instruction deltas.
//
// The package deliberately has no dependencies outside the standard
// library so every layer (isa, sim, uarch, core, codegen, bench, cmd) can
// import it without cycles.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Counter is a monotonically growing integer metric.
type Counter struct {
	v int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v += n }

// Gauge is a point-in-time float metric.
type Gauge struct {
	v float64
}

// Set overwrites the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Histogram is a fixed-bucket histogram: Bounds[i] is the inclusive upper
// bound of bucket i, and one implicit overflow bucket catches everything
// above the last bound.
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is overflow
	count  int64
	sum    float64
}

// ObserveN records n observations of v at once (bulk import from
// pre-aggregated counters, e.g. per-cycle occupancy arrays).
func (h *Histogram) ObserveN(v float64, n int64) {
	if n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i] += n
	h.count += n
	h.sum += v * float64(n)
}

// Registry is a named collection of metrics. It is not safe for concurrent
// use; the simulators are single-threaded by construction.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (bounds are ignored if the
// name already exists).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h, ok := r.histograms[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// formatFloat renders a float deterministically for both encoders. NaN and
// infinities are not valid JSON numbers; they are clamped to 0 (metrics
// should never produce them, but a malformed rate must not corrupt the
// document).
func formatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSON encodes the registry as a deterministic JSON document:
//
//	{
//	  "counters": {"name": 1, ...},
//	  "gauges": {"name": 1.5, ...},
//	  "histograms": {"name": {"bounds": [...], "counts": [...], "count": n, "sum": s}, ...}
//	}
//
// Keys are sorted, so identical registries produce byte-identical output.
func (r *Registry) WriteJSON(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("{\n  \"counters\": {")
	for i, k := range sortedKeys(r.counters) {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "\n    %s: %d", quote(k), r.counters[k].v)
	}
	sb.WriteString("\n  },\n  \"gauges\": {")
	for i, k := range sortedKeys(r.gauges) {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "\n    %s: %s", quote(k), formatFloat(r.gauges[k].v))
	}
	sb.WriteString("\n  },\n  \"histograms\": {")
	for i, k := range sortedKeys(r.histograms) {
		if i > 0 {
			sb.WriteByte(',')
		}
		h := r.histograms[k]
		fmt.Fprintf(&sb, "\n    %s: {\"bounds\": [", quote(k))
		for j, b := range h.bounds {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(formatFloat(b))
		}
		sb.WriteString("], \"counts\": [")
		for j, c := range h.counts {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", c)
		}
		fmt.Fprintf(&sb, "], \"count\": %d, \"sum\": %s}", h.count, formatFloat(h.sum))
	}
	sb.WriteString("\n  }\n}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteCSV encodes the registry as deterministic CSV with the fixed header
// kind,name,key,value. Histograms emit one row per bucket (key "le=<bound>",
// the overflow bucket as "le=+Inf") plus count and sum rows.
func (r *Registry) WriteCSV(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("kind,name,key,value\n")
	for _, k := range sortedKeys(r.counters) {
		fmt.Fprintf(&sb, "counter,%s,,%d\n", csvEscape(k), r.counters[k].v)
	}
	for _, k := range sortedKeys(r.gauges) {
		fmt.Fprintf(&sb, "gauge,%s,,%s\n", csvEscape(k), formatFloat(r.gauges[k].v))
	}
	for _, k := range sortedKeys(r.histograms) {
		h := r.histograms[k]
		name := csvEscape(k)
		for i, c := range h.counts {
			bound := "+Inf"
			if i < len(h.bounds) {
				bound = formatFloat(h.bounds[i])
			}
			fmt.Fprintf(&sb, "histogram,%s,le=%s,%d\n", name, bound, c)
		}
		fmt.Fprintf(&sb, "histogram,%s,count,%d\n", name, h.count)
		fmt.Fprintf(&sb, "histogram,%s,sum,%s\n", name, formatFloat(h.sum))
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// quote JSON-quotes a string (metric names are plain identifiers, but the
// encoder must stay correct for arbitrary input).
func quote(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&sb, `\u%04x`, r)
			} else {
				sb.WriteRune(r)
			}
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
