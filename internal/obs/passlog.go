package obs

import (
	"fmt"
	"strings"
)

// PassRecord is one compiler-pass execution: which pass ran on which unit
// (function or module), how long it took, and how the IR instruction count
// changed.
type PassRecord struct {
	Pass   string
	Unit   string
	Nanos  int64
	Before int // instruction count before the pass
	After  int // instruction count after the pass
}

// Delta returns the IR instruction delta (negative when the pass shrank
// the unit).
func (r PassRecord) Delta() int { return r.After - r.Before }

// PassLog accumulates pass records in execution order. The zero value is
// ready to use; a nil *PassLog is a valid no-op sink.
type PassLog struct {
	Records []PassRecord
}

// Add appends one record. Safe on a nil log.
func (l *PassLog) Add(pass, unit string, nanos int64, before, after int) {
	if l == nil {
		return
	}
	l.Records = append(l.Records, PassRecord{Pass: pass, Unit: unit, Nanos: nanos, Before: before, After: after})
}

// Observer adapts the log to the opt.PassObserver callback shape. A nil
// log yields a nil observer, which instrumented pipelines treat as "off".
func (l *PassLog) Observer() func(pass, unit string, nanos int64, before, after int) {
	if l == nil {
		return nil
	}
	return l.Add
}

// TraceEvents renders the log as Chrome trace spans on one "compiler"
// track of the given process: records are laid out back-to-back from ts 0
// in execution order, each span lasting the pass's measured wall time in
// microseconds (clamped to at least 1 so sub-microsecond passes stay
// visible). Together with the pipeline journal's cycle spans and the
// timeline counter tracks, this makes one compile+simulate job a single
// unified trace; the compiler track's clock is host wall time while the
// simulation tracks tick in cycles, so the two groups are read
// independently.
func (l *PassLog) TraceEvents(pid int) []TraceEvent {
	if l == nil || len(l.Records) == 0 {
		return nil
	}
	events := []TraceEvent{ThreadName(pid, 1, "compiler")}
	ts := int64(0)
	for _, r := range l.Records {
		dur := r.Nanos / 1000
		if dur < 1 {
			dur = 1
		}
		ev := Span(r.Pass, "compile", ts, dur, pid, 1)
		ev.Args = map[string]string{"unit": r.Unit}
		if r.Before != 0 || r.After != 0 {
			ev.Args["instrs"] = fmt.Sprintf("%d->%d", r.Before, r.After)
		}
		events = append(events, ev)
		ts += dur
	}
	return events
}

// String renders the log as an aligned table.
func (l *PassLog) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %-20s %12s %7s %7s %7s\n", "pass", "unit", "ns", "before", "after", "delta")
	for _, r := range l.Records {
		fmt.Fprintf(&sb, "%-20s %-20s %12d %7d %7d %+7d\n", r.Pass, r.Unit, r.Nanos, r.Before, r.After, r.Delta())
	}
	return sb.String()
}
