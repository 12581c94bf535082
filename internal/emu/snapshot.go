package emu

import (
	"sort"

	"ctcp/internal/isa"
	"ctcp/internal/snap"
)

// This file implements the snap.Checkpointable contract for the functional
// simulator: Memory, Machine and the budgeted LimitStream over it, plus the
// Committed record they carry. Everything here is architectural state — the
// emulator has almost no scratch state; the excluded fields are Memory's
// one-entry page-translation cache (lastIdx/lastPage), rebuilt lazily after
// restore, and Machine's predecoded uop table (pred/predBase), derived from
// the immutable program at construction (see predecode.go).

// Snapshot serializes the memory contents: every non-zero page, in
// ascending page-index order. All-zero pages are skipped (reads of
// untouched memory return zero anyway), so the encoding — like Checksum —
// depends only on the byte contents, not on which zero pages were touched.
func (m *Memory) Snapshot(w *snap.Writer) {
	w.Begin("memory")
	idxs := make([]uint64, 0, len(m.pages))
	for idx, p := range m.pages { //ctcp:lint-ok maporder -- keys are collected and sorted before use
		if !p.isZero() {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	w.Int(len(idxs))
	for _, idx := range idxs {
		w.U64(idx)
		w.Bytes(m.pages[idx][:])
	}
	w.End()
}

// Restore replaces the memory contents with the snapshot's pages. Each
// snapshot page is copied into the page already at its index, so a machine
// restored again and again (a sampling worker's) allocates only for indices
// it has never touched. Pages the snapshot lacks are zeroed, not dropped:
// the snapshot omits exactly the all-zero pages. The page-translation cache
// is scratch and is reset, not restored.
func (m *Memory) Restore(r *snap.Reader) {
	r.Begin("memory")
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if m.pages == nil {
		m.pages = make(map[uint64]*page, n)
	}
	for _, p := range m.pages { //ctcp:lint-ok maporder -- every page is cleared; the visit order is unobservable
		clear(p[:])
	}
	m.lastIdx, m.lastPage = 0, nil
	for i := 0; i < n; i++ {
		idx := r.U64()
		b := r.BytesView()
		if r.Err() != nil {
			return
		}
		if len(b) != pageSize {
			r.Failf("memory page %#x has %d bytes (want %d)", idx, len(b), pageSize)
			return
		}
		p := m.pages[idx]
		if p == nil {
			p = new(page)
			m.pages[idx] = p
		}
		copy(p[:], b)
	}
	r.End()
}

func (p *page) isZero() bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// Snapshot serializes the machine: register file, PC, commit count, halt
// and fault state, OUT checksum, and the full memory image. The program
// itself is not serialized — a snapshot can only be restored into a machine
// constructed over the same program, which is enforced by fingerprinting
// the program layout.
func (m *Machine) Snapshot(w *snap.Writer) {
	w.Begin("machine")
	// The predecoded uop table is derived state: a pure function of the
	// immutable program image, built once in New and valid for the machine's
	// whole lifetime, so it is neither serialized nor rebuilt on restore.
	_ = m.pred
	_ = m.predBase
	w.U64(m.prog.Entry)
	w.U64(m.prog.TextBase)
	w.U64(m.prog.TextEnd())
	w.U64(m.prog.DataBase)
	w.Int(len(m.prog.Data))
	w.U64Slice(m.Regs[:])
	w.U64(m.PC)
	w.Bool(m.halted)
	w.U64(m.seq)
	if m.fault != nil {
		w.Bool(true)
		if f, ok := m.fault.(*Fault); ok {
			w.U64(f.PC)
			w.String(f.Reason)
		} else {
			w.U64(m.PC)
			w.String(m.fault.Error())
		}
	} else {
		w.Bool(false)
	}
	w.U64(m.OutHash)
	w.U64Slice(m.OutValues)
	m.Mem.Snapshot(w)
	w.End()
}

// Restore rebuilds the machine state from r. The receiver must have been
// constructed with New over the same program the snapshot was taken from.
func (m *Machine) Restore(r *snap.Reader) {
	r.Begin("machine")
	r.Expect("program entry", m.prog.Entry)
	r.Expect("program text base", m.prog.TextBase)
	r.Expect("program text end", m.prog.TextEnd())
	r.Expect("program data base", m.prog.DataBase)
	r.ExpectInt("program data size", len(m.prog.Data))
	regs := r.U64Slice()
	if r.Err() == nil && len(regs) != isa.NumRegs {
		r.Failf("register file has %d entries (want %d)", len(regs), isa.NumRegs)
	}
	if r.Err() != nil {
		return
	}
	copy(m.Regs[:], regs)
	m.PC = r.U64()
	m.halted = r.Bool()
	m.seq = r.U64()
	if r.Bool() {
		pc := r.U64()
		reason := r.String()
		m.fault = &Fault{PC: pc, Reason: reason}
	} else {
		m.fault = nil
	}
	m.OutHash = r.U64()
	m.OutValues = r.U64Slice()
	m.Mem.Restore(r)
	r.End()
}

// Snapshot serializes the budget wrapper and delegates to the underlying
// stream, which must itself be checkpointable.
func (l *LimitStream) Snapshot(w *snap.Writer) {
	w.Begin("limitstream")
	w.U64(l.Budget)
	w.U64(l.used)
	cp, ok := l.S.(snap.Checkpointable)
	if !ok {
		w.Failf("limitstream: underlying stream %T is not checkpointable", l.S)
		return
	}
	cp.Snapshot(w)
	w.End()
}

// Restore rebuilds the budget cursor and delegates to the underlying
// stream.
func (l *LimitStream) Restore(r *snap.Reader) {
	r.Begin("limitstream")
	l.Budget = r.U64()
	l.used = r.U64()
	cp, ok := l.S.(snap.Checkpointable)
	if !ok {
		r.Failf("limitstream: underlying stream %T is not checkpointable", l.S)
		return
	}
	cp.Restore(r)
	r.End()
}

// Snapshot serializes one committed-instruction record (a leaf value: no
// section of its own).
func (c *Committed) Snapshot(w *snap.Writer) {
	w.U64(c.Seq)
	w.U64(c.PC)
	c.Inst.Snapshot(w)
	w.U64(c.NextPC)
	w.Bool(c.Taken)
	// Decoded from Inst: not serialized, derived again by Restore.
	_ = c.Src
	_ = c.Dest
	w.U64(c.EA)
	w.U8(c.Size)
}

// Restore rebuilds one committed-instruction record.
func (c *Committed) Restore(r *snap.Reader) {
	c.Seq = r.U64()
	c.PC = r.U64()
	c.Inst.Restore(r)
	c.NextPC = r.U64()
	c.Taken = r.Bool()
	c.EA = r.U64()
	c.Size = r.U8()
	c.Decode()
}
