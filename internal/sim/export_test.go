package sim

// ReadGlobalInt reads word idx of a global after a run.
func (m *Machine) ReadGlobalInt(name string, idx int64) int64 {
	return int64(m.loadWord(m.prog.GlobalAddr[name] + idx*8))
}
