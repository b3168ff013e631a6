package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func sampleRegistry() *Registry {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(40)
	r.Counter("a.count").Add(2)
	r.Gauge("rate").Set(0.5)
	r.Gauge("weird\"name").Set(1.25)
	h := r.Histogram("occ", []float64{0, 1, 2})
	h.ObserveN(0, 1)
	h.ObserveN(1, 3)
	h.ObserveN(9, 1) // overflow bucket
	return r
}

// The JSON encoding is pinned byte-for-byte: consumers diff these documents
// across runs, so any formatting change is a breaking change.
func TestRegistryWriteJSONGolden(t *testing.T) {
	const want = `{
  "counters": {
    "a.count": 42,
    "b.count": 2
  },
  "gauges": {
    "rate": 0.5,
    "weird\"name": 1.25
  },
  "histograms": {
    "occ": {"bounds": [0,1,2], "counts": [1,3,0,1], "count": 5, "sum": 12}
  }
}
`
	var sb strings.Builder
	if err := sampleRegistry().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("JSON drifted:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
	// And it must be parseable by a standard JSON decoder.
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
}

func TestRegistryWriteCSVGolden(t *testing.T) {
	const want = `kind,name,key,value
counter,a.count,,42
counter,b.count,,2
gauge,rate,,0.5
gauge,"weird""name",,1.25
histogram,occ,le=0,1
histogram,occ,le=1,3
histogram,occ,le=2,0
histogram,occ,le=+Inf,1
histogram,occ,count,5
histogram,occ,sum,12
`
	var sb strings.Builder
	if err := sampleRegistry().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("CSV drifted:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestRegistryDeterminism(t *testing.T) {
	var a, b strings.Builder
	if err := sampleRegistry().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two identical registries encoded differently")
	}
}

func TestFormatFloatClampsNonFinite(t *testing.T) {
	r := NewRegistry()
	r.Gauge("nan").Set(math.NaN())
	r.Gauge("inf").Set(math.Inf(1))
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]float64
	if err := json.Unmarshal([]byte(sb.String()), &struct{}{}); err != nil {
		t.Fatalf("NaN/Inf gauges corrupted the JSON document: %v\n%s", err, sb.String())
	}
	_ = doc
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 20})
	h.ObserveN(10, 1) // bounds are inclusive upper bounds
	h.ObserveN(10.5, 1)
	h.ObserveN(25, 1)
	h.ObserveN(5, 0)  // n<=0 is a no-op
	h.ObserveN(5, -3) // n<=0 is a no-op
	if h.count != 3 {
		t.Errorf("count = %d, want 3", h.count)
	}
	if h.sum != 45.5 {
		t.Errorf("sum = %v, want 45.5", h.sum)
	}
	if got := fmt.Sprint(h.counts); got != "[1 1 1]" {
		t.Errorf("bucket counts = %s, want [1 1 1]", got)
	}
}

// The trace encoder must produce a document a standard JSON decoder accepts,
// with the trace-event fields Perfetto requires.
func TestWriteTraceValidJSON(t *testing.T) {
	events := []TraceEvent{
		ThreadName(1, 2, "INT"),
		Span("exec", "pipe", 5, 3, 1, 2),
		Instant("mispredict", 9, 1, 2),
		{Name: "argy", Ph: "X", Ts: 1, Dur: 1, Pid: 1, Tid: 2,
			Args: map[string]string{"b": "2", "a": "1"}},
	}
	var sb strings.Builder
	if err := WriteTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   *int64            `json:"ts"`
			Dur  *int64            `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			S    string            `json:"s"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Args["name"] != "INT" {
		t.Errorf("metadata event wrong: %+v", doc.TraceEvents[0])
	}
	span := doc.TraceEvents[1]
	if span.Ph != "X" || span.Ts == nil || *span.Ts != 5 || span.Dur == nil || *span.Dur != 3 {
		t.Errorf("span event wrong: %+v", span)
	}
	inst := doc.TraceEvents[2]
	if inst.Ph != "i" || inst.S != "t" {
		t.Errorf("instant event must be thread-scoped: %+v", inst)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// Determinism: args in sorted key order, byte-stable across encodes.
	var sb2 strings.Builder
	if err := WriteTrace(&sb2, events); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Error("trace encoding is not deterministic")
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	if e := Span("x", "", 10, -5, 1, 1); e.Dur != 0 {
		t.Errorf("negative duration not clamped: %d", e.Dur)
	}
}

func TestPassLogNilSafe(t *testing.T) {
	var l *PassLog
	l.Add("p", "u", 1, 2, 3) // must not panic
	if obs := l.Observer(); obs != nil {
		t.Error("nil log should yield a nil observer")
	}
}

func TestPassLogJSONAndDelta(t *testing.T) {
	l := &PassLog{}
	l.Add("dce", "main", 100, 10, 7)
	if l.Records[0].Delta() != -3 {
		t.Errorf("delta = %d, want -3", l.Records[0].Delta())
	}
	// The log reaches JSON as compiler spans of a trace document.
	var sb strings.Builder
	if err := WriteTrace(&sb, l.TraceEvents(2)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]string
		}
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("pass log JSON invalid: %v\n%s", err, sb.String())
	}
	if n := len(doc.TraceEvents); n != 2 || doc.TraceEvents[1].Name != "dce" ||
		doc.TraceEvents[1].Args["unit"] != "main" || doc.TraceEvents[1].Args["instrs"] != "10->7" {
		t.Errorf("pass log JSON wrong: %+v", doc.TraceEvents)
	}
	if !strings.Contains(l.String(), "dce") {
		t.Error("String() missing pass name")
	}
}
