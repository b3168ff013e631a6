package interp

// GlobalAddr returns the base address assigned to global name.
func (m *Machine) GlobalAddr(name string) int64 { return m.globalAddr[name] }

// ReadGlobalInt reads word idx of an integer global after a run.
func (m *Machine) ReadGlobalInt(name string, idx int64) int64 {
	return m.loadInt(m.globalAddr[name] + idx*wordBytes)
}
