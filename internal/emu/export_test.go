package emu

// Templates returns the predecoded template record of every static
// instruction, in text order, for the external tests.
func (m *Machine) Templates() []Committed {
	out := make([]Committed, len(m.pred))
	for i := range m.pred {
		out[i] = m.pred[i].tmpl
	}
	return out
}
