package core

// Subsystem identifies where a node executes after partitioning.
type Subsystem uint8

// Subsystems.
const (
	SubINT Subsystem = iota // the integer subsystem
	SubFPa                  // the augmented floating-point subsystem
)

// String names the subsystem.
func (s Subsystem) String() string {
	if s == SubFPa {
		return "FPa"
	}
	return "INT"
}

// Partition is the result of running a partitioning scheme on a function's
// RDG.
type Partition struct {
	G      *Graph
	Scheme string

	// Assign[node] is the subsystem of each non-FixedFP node.
	Assign []Subsystem

	// CopyNodes are INT-side definitions whose value is copied INT→FPa
	// with an explicit copy instruction (advanced scheme only).
	CopyNodes map[NodeID]bool

	// DupNodes are INT-side definitions duplicated into FPa (advanced
	// scheme only). A duplicated load value is re-loaded into an FP
	// register; a duplicated ALU op is re-executed on FPa copies of its
	// operands.
	DupNodes map[NodeID]bool

	// OutCopyNodes are FPa-side definitions whose value is copied FPa→INT
	// because a call argument or return value needs it in an integer
	// register (§6.4).
	OutCopyNodes map[NodeID]bool

	// Audit is the partition-decision trail: one record per connected
	// component the scheme examined, with the cost-model terms and the
	// accept/reject reason (surfaced by fpic -explain).
	Audit *Audit
}

func newPartition(g *Graph, scheme string) *Partition {
	return &Partition{
		G:            g,
		Scheme:       scheme,
		Assign:       make([]Subsystem, len(g.Nodes)),
		CopyNodes:    make(map[NodeID]bool),
		DupNodes:     make(map[NodeID]bool),
		OutCopyNodes: make(map[NodeID]bool),
	}
}

// InFPa reports whether node id is assigned to the FPa subsystem.
func (p *Partition) InFPa(id NodeID) bool {
	return p.G.Nodes[id].Class != ClassFixedFP && p.Assign[id] == SubFPa
}

// FPaAvailable reports whether node id's value is available in the FP
// register file (it executes there, or is copied/duplicated into it).
func (p *Partition) FPaAvailable(id NodeID) bool {
	return p.InFPa(id) || p.CopyNodes[id] || p.DupNodes[id]
}

// Stats summarizes a partition statically, weighting nodes by the cost
// model's execution-count estimates. Dynamic percentages for the figures
// come from the timing/functional simulators instead.
type Stats struct {
	TotalNodes int
	FPaNodes   int
	Copies     int
	Dups       int
	OutCopies  int

	// Weighted by execution-count estimate, counting each split
	// instruction once (a load/store whose value half is in FPa still
	// executes in INT's load/store unit, so split instructions count as
	// INT).
	TotalWeight float64
	FPaWeight   float64
}

// ComputeStats derives summary statistics for the partition.
func (p *Partition) ComputeStats() Stats {
	var st Stats
	seen := make(map[int]bool)
	for _, n := range p.G.Nodes {
		if n.Class == ClassFixedFP {
			continue
		}
		st.TotalNodes++
		if p.InFPa(n.ID) {
			st.FPaNodes++
		}
		if n.Instr == nil || seen[n.Instr.ID] {
			continue
		}
		seen[n.Instr.ID] = true
		st.TotalWeight += n.Count
		// Whole-instruction FPa execution requires the main node in FPa;
		// split memory instructions execute in INT regardless.
		switch n.Kind {
		case KindPlain, KindBranch:
			if p.InFPa(n.ID) {
				st.FPaWeight += n.Count
			}
		}
	}
	st.Copies = len(p.CopyNodes)
	st.Dups = len(p.DupNodes)
	st.OutCopies = len(p.OutCopyNodes)
	return st
}
