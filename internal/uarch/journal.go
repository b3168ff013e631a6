package uarch

import (
	"fmt"
	"strings"

	"fpint/internal/isa"
	"fpint/internal/obs"
)

// JournalEntry records the pipeline timing of one dynamic instruction —
// the equivalent of SimpleScalar's ptrace facility, used to inspect how
// the machine schedules the partitioned code.
type JournalEntry struct {
	Seq      int64 // dynamic instruction number
	PC       int
	Op       isa.Opcode
	Sub      isa.Subsystem
	FetchAt  int64
	IssueAt  int64
	DoneAt   int64
	CommitAt int64
	Misp     bool // mispredicted conditional branch
}

// Journal collects the first N committed instructions' timings of a
// detailed run armed with Machine.SetJournalLimit.
type Journal struct {
	Limit   int
	Entries []JournalEntry
}

// attachJournal starts recording the first limit committed instructions.
// The entry buffer is preallocated to the limit, so recording itself does
// not allocate.
func (p *pipeline) attachJournal(limit int) *Journal {
	p.journal = &Journal{Limit: limit, Entries: make([]JournalEntry, 0, limit)}
	return p.journal
}

// record is called at commit time.
func (j *Journal) record(e JournalEntry) {
	if len(j.Entries) >= j.Limit {
		return
	}
	j.Entries = append(j.Entries, e)
}

// TraceEvents converts the journal into Chrome trace events: one track
// (thread) per subsystem, with a fetch→issue "frontend" span, an
// issue→done "exec" span, and a done→commit "commit" span per instruction,
// plus an instant marker on every mispredicted branch. Timestamps are
// cycles (rendered as microseconds by the viewer).
func (j *Journal) TraceEvents() []obs.TraceEvent {
	const pid = 1
	var events []obs.TraceEvent
	used := [3]bool{}
	for _, e := range j.Entries {
		used[e.Sub] = true
	}
	for sub := 0; sub < 3; sub++ {
		if used[sub] {
			events = append(events, obs.ThreadName(pid, sub+1, isa.Subsystem(sub).String()))
		}
	}
	for _, e := range j.Entries {
		tid := int(e.Sub) + 1
		name := e.Op.String()
		span := func(cat string, from, to int64) {
			ev := obs.Span(name, cat, from, to-from, pid, tid)
			ev.Args = map[string]string{
				"seq": fmt.Sprint(e.Seq),
				"pc":  fmt.Sprint(e.PC),
			}
			events = append(events, ev)
		}
		span("frontend", e.FetchAt, e.IssueAt)
		span("exec", e.IssueAt, e.DoneAt)
		span("commit", e.DoneAt, e.CommitAt)
		if e.Misp {
			events = append(events, obs.Instant("mispredict", e.DoneAt, pid, tid))
		}
	}
	return events
}

// String renders the journal as a pipetrace table.
func (j *Journal) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s %6s %-8s %-4s %8s %8s %8s %8s\n",
		"seq", "pc", "op", "sub", "fetch", "issue", "done", "commit")
	for _, e := range j.Entries {
		flag := ""
		if e.Misp {
			flag = "  <- mispredicted"
		}
		fmt.Fprintf(&sb, "%6d %6d %-8s %-4s %8d %8d %8d %8d%s\n",
			e.Seq, e.PC, e.Op, e.Sub, e.FetchAt, e.IssueAt, e.DoneAt, e.CommitAt, flag)
	}
	return sb.String()
}
