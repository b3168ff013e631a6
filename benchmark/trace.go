package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"fpint/internal/obs"
)

// Ledger rows are named after the repository's modules. A call's span is
// named after the entry point it times; its self time lands in the row
// rowOf gives it. Kids carry row names directly.
var (
	rowUarchTiming     = obs.PrefixUarch + "timing"
	rowServiceOverhead = obs.PrefixService + "overhead"
	spanUarchRun       = obs.PrefixUarch + "run"
	spanServiceReq     = obs.PrefixService + "request"
)

const (
	rowOther        = "other"
	spanCompile     = "codegen.compile"
	rowCodegenOther = "codegen.other"
)

// rowOf maps a call's span name to the ledger row that receives its self
// time: what is left of a compile after its pass records is codegen's own
// glue, what is left of a timed run after its functional twin is the timing
// pipeline, and what is left of a request after its direct-call twin is the
// daemon.
func rowOf(span string) string {
	switch span {
	case spanCompile:
		return rowCodegenOther
	case spanUarchRun:
		return rowUarchTiming
	case spanServiceReq:
		return rowServiceOverhead
	}
	return span
}

// ledgerRows is the fixed row order of the printed ledger.
var ledgerRows = []string{
	"lang.parse", "lang.check", "irgen.lower", "opt.optimize", "interp.profile",
	"analysis.analyze", "core.partition", "codegen.select", "codegen.regalloc", rowCodegenOther,
	"sim.run", rowUarchTiming, rowServiceOverhead, rowOther,
}

// kid is a sub-span of a call known only by its duration: a record the
// layer reports about itself (codegen's pass log) or a twin call timed
// outside the job. Kids are laid out back to back from the call's start.
type kid struct {
	row string
	dur time.Duration
}

// call is one timed call into a layer's exported entry point.
type call struct {
	name  string
	start time.Time
	dur   time.Duration
	kids  []kid
}

// addKid attaches a kid, capped at what the call has left so that a noisy
// twin can never make the call's self time negative.
func (c *call) addKid(row string, d time.Duration) {
	left := c.dur
	for _, k := range c.kids {
		left -= k.dur
	}
	if d > left {
		d = left
	}
	if d < 0 {
		d = 0
	}
	c.kids = append(c.kids, kid{row: row, dur: d})
}

// self is the call's duration not covered by its kids.
func (c *call) self() time.Duration {
	d := c.dur
	for _, k := range c.kids {
		d -= k.dur
	}
	return d
}

// jobTrace is the span tree of one job: the job span and the layer calls
// made inside it, in order.
type jobTrace struct {
	id    int
	tid   int
	kind  string // "job", "setup" or "twin"
	start time.Time
	dur   time.Duration
	calls []*call
}

// time runs f as one call into a layer.
func (j *jobTrace) time(name string, f func()) *call {
	c := &call{name: name, start: time.Now()}
	f()
	c.dur = time.Since(c.start)
	j.calls = append(j.calls, c)
	return c
}

// rows adds the job's self time per ledger row into into, the job span's
// own self time going to the "other" row, and returns the job total.
func (j *jobTrace) rows(into map[string]time.Duration) time.Duration {
	other := j.dur
	for _, c := range j.calls {
		into[rowOf(c.name)] += c.self()
		for _, k := range c.kids {
			into[k.row] += k.dur
		}
		other -= c.dur
	}
	into[rowOther] += other
	return j.dur
}

// tracer keeps every span of a traced run in memory; write emits them once,
// at the end, as a Chrome trace.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID int
	jobs   []*jobTrace // measured jobs: the ledger covers exactly these
	others []*jobTrace // set-up and twin work, outside every job span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span tree of the given kind on thread tid.
func (t *tracer) begin(kind string, tid int) *jobTrace {
	t.mu.Lock()
	id := t.nextID
	t.nextID++
	t.mu.Unlock()
	return &jobTrace{id: id, tid: tid, kind: kind, start: time.Now()}
}

// end closes j and files it.
func (t *tracer) end(j *jobTrace) {
	j.dur = time.Since(j.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if j.kind == "job" {
		t.jobs = append(t.jobs, j)
	} else {
		t.others = append(t.others, j)
	}
}

// ledger is the per-row self time over the measured jobs. Because a call's
// self time is its duration minus its kids, and the job's own remainder is
// the "other" row, the rows sum to the job total.
type ledger struct {
	rows  map[string]time.Duration
	total time.Duration
	jobs  int
}

func (t *tracer) ledger() ledger {
	l := ledger{rows: make(map[string]time.Duration)}
	for _, j := range t.jobs {
		l.total += j.rows(l.rows)
		l.jobs++
	}
	return l
}

// perJobMS is a row's mean self time per job in milliseconds.
func (l ledger) perJobMS(row string) float64 {
	if l.jobs == 0 {
		return 0
	}
	return ms(l.rows[row]) / float64(l.jobs)
}

// String renders the self-time ledger with its explicit "other" row and
// the closing check against the job total.
func (l ledger) String() string {
	s := fmt.Sprintf("  %-18s %12s %7s\n", "row", "self_ms", "share")
	var sum time.Duration
	for _, r := range ledgerRows {
		d := l.rows[r]
		sum += d
		share := 0.0
		if l.total > 0 {
			share = 100 * float64(d) / float64(l.total)
		}
		s += fmt.Sprintf("  %-18s %12.3f %6.2f%%\n", r, ms(d), share)
	}
	s += fmt.Sprintf("  %-18s %12.3f   (job total %.3f ms over %d jobs)\n", "sum", ms(sum), ms(l.total), l.jobs)
	return s
}

// events renders every span as Chrome trace events: the job span, its
// calls, and their kids laid out from each call's start. Args carry the job
// id and the parent span's name.
func (t *tracer) events() []obs.TraceEvent {
	us := func(at time.Time) int64 { return at.Sub(t.epoch).Microseconds() }
	var evs []obs.TraceEvent
	tids := map[int]bool{}
	all := append(append([]*jobTrace(nil), t.jobs...), t.others...)
	for _, j := range all {
		if !tids[j.tid] {
			tids[j.tid] = true
			evs = append(evs, obs.ThreadName(1, j.tid, fmt.Sprintf("client %d", j.tid)))
		}
		id := fmt.Sprint(j.id)
		ev := obs.Span(j.kind, "job", us(j.start), j.dur.Microseconds(), 1, j.tid)
		ev.Args = map[string]string{"job": id}
		evs = append(evs, ev)
		for _, c := range j.calls {
			ev := obs.Span(c.name, "layer", us(c.start), c.dur.Microseconds(), 1, j.tid)
			ev.Args = map[string]string{"job": id, "parent": j.kind}
			evs = append(evs, ev)
			at := c.start
			for _, k := range c.kids {
				ev := obs.Span(k.row, "layer", us(at), k.dur.Microseconds(), 1, j.tid)
				ev.Args = map[string]string{"job": id, "parent": c.name}
				evs = append(evs, ev)
				at = at.Add(k.dur)
			}
		}
	}
	obs.SortEventsByTs(evs)
	return evs
}

// write emits the trace to path as Chrome trace JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, t.events()); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

// sortedRows returns a map's keys in order, for deterministic output.
func sortedRows(m map[string]time.Duration) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
