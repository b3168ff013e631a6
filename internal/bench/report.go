package bench

import (
	"encoding/json"
	"io"
)

// ReportSchema identifies the JSON layout fpibench -json emits. Bump it
// when the shape of Report or any row type changes incompatibly; the
// golden tests pin the encoding byte-for-byte.
const ReportSchema = "fpint-bench/v1"

// Report is the machine-readable form of the evaluation: every requested
// figure/table as one named experiment with structured rows, so downstream
// tooling can consume the numbers without scraping tables.
type Report struct {
	Schema      string       `json:"schema"`
	Experiments []Experiment `json:"experiments"`
}

// Experiment is one figure or table: a stable name, the paper section it
// reproduces, and its typed rows.
type Experiment struct {
	Name    string `json:"name"`
	Section string `json:"section"`
	Rows    any    `json:"rows"`
}

// Add appends one experiment.
func (r *Report) Add(name, section string, rows any) {
	r.Experiments = append(r.Experiments, Experiment{Name: name, Section: section, Rows: rows})
}

// NewReport returns an empty report with the current schema tag.
func NewReport() *Report { return &Report{Schema: ReportSchema} }

// WriteJSON encodes the report with two-space indentation. encoding/json
// marshals struct fields in declaration order and map keys sorted, so the
// output is deterministic for deterministic inputs.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
