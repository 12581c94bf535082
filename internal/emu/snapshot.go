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

// Checkpoint codes the memory contents: every non-zero page, in ascending
// page-index order. All-zero pages are skipped (reads of untouched memory
// return zero anyway), so the encoding — like Checksum — depends only on the
// byte contents, not on which zero pages were touched. Decoding copies each
// snapshot page into the page already at its index, so a machine restored
// again and again (a sampling worker's) allocates only for indices it has
// never touched. Pages the snapshot lacks are zeroed, not dropped: the
// snapshot omits exactly the all-zero pages. The page-translation cache is
// scratch and is reset, not decoded.
func (m *Memory) Checkpoint(c *snap.Codec) {
	c.Begin("memory")
	var idxs []uint64
	if !c.Decoding() {
		idxs = make([]uint64, 0, len(m.pages))
		for idx, p := range m.pages { //ctcp:lint-ok maporder -- keys are collected and sorted before use
			if !p.isZero() {
				idxs = append(idxs, idx)
			}
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	}
	n := len(idxs)
	if c.Len(&n, 8+8+pageSize); c.Decoding() {
		if m.pages == nil {
			m.pages = make(map[uint64]*page, n)
		}
		for _, p := range m.pages { //ctcp:lint-ok maporder -- every page is cleared; the visit order is unobservable
			clear(p[:])
		}
		m.lastIdx, m.lastPage = 0, nil
	}
	for i := 0; i < n; i++ {
		var idx uint64
		if !c.Decoding() {
			idx = idxs[i]
		}
		if c.U64(&idx); c.Err() != nil {
			return
		}
		p := m.pages[idx]
		if p == nil { // decoding only: every encoded index holds a page
			p = new(page)
			m.pages[idx] = p
		}
		c.Fill(p[:])
	}
	c.End()
}

func (p *page) isZero() bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// Checkpoint codes the machine: register file, PC, commit count, halt and
// fault state, OUT checksum, and the full memory image. The program itself
// is not coded — a snapshot can only be decoded into a machine constructed
// with New over the same program, which is enforced by fingerprinting the
// program layout.
func (m *Machine) Checkpoint(c *snap.Codec) {
	c.Begin("machine")
	// The predecoded uop table is derived state: a pure function of the
	// immutable program image, built once in New and valid for the machine's
	// whole lifetime, so it is neither coded nor rebuilt on decode.
	_ = m.pred
	_ = m.predBase
	c.Check("program entry", m.prog.Entry)
	c.Check("program text base", m.prog.TextBase)
	c.Check("program text end", m.prog.TextEnd())
	c.Check("program data base", m.prog.DataBase)
	c.CheckInt("program data size", len(m.prog.Data))
	n := len(m.Regs)
	if c.Len(&n, 8); c.Err() == nil && n != len(m.Regs) {
		c.Failf("register file has %d entries (want %d)", n, isa.NumRegs)
	}
	for i := range m.Regs {
		c.U64(&m.Regs[i])
	}
	c.U64(&m.PC)
	c.Bool(&m.halted)
	c.U64(&m.seq)
	// The fault is coded as its PC and reason and decodes as a *Fault.
	faulted := m.fault != nil
	var f Fault
	if !c.Decoding() && faulted {
		if e, ok := m.fault.(*Fault); ok {
			f = *e
		} else {
			f = Fault{PC: m.PC, Reason: m.fault.Error()}
		}
	}
	if c.Bool(&faulted); faulted {
		c.U64(&f.PC)
		c.String(&f.Reason)
	}
	if c.Decoding() {
		m.fault = nil
		if faulted {
			m.fault = &Fault{PC: f.PC, Reason: f.Reason}
		}
	}
	c.U64(&m.OutHash)
	c.U64s(&m.OutValues)
	m.Mem.Checkpoint(c)
	c.End()
}

// Snapshot encodes the machine into w; it is Checkpoint for callers that
// hold a Writer.
func (m *Machine) Snapshot(w *snap.Writer) { m.Checkpoint(&w.Codec) }

// Restore decodes the machine from r; it is Checkpoint for callers that
// hold a Reader.
func (m *Machine) Restore(r *snap.Reader) { m.Checkpoint(&r.Codec) }

// Checkpoint codes the budget wrapper and delegates to the underlying
// stream, which must itself be checkpointable.
func (l *LimitStream) Checkpoint(c *snap.Codec) {
	c.Begin("limitstream")
	c.U64(&l.Budget)
	c.U64(&l.used)
	cp, ok := l.S.(snap.Checkpointable)
	if !ok {
		c.Failf("limitstream: underlying stream %T is not checkpointable", l.S)
		return
	}
	cp.Checkpoint(c)
	c.End()
}

// Checkpoint codes one committed-instruction record (a leaf value: no
// section of its own).
func (c *Committed) Checkpoint(cd *snap.Codec) {
	cd.U64(&c.Seq)
	cd.U64(&c.PC)
	c.Inst.Checkpoint(cd)
	cd.U64(&c.NextPC)
	cd.Bool(&c.Taken)
	// Decoded from Inst: not coded, derived again on decode.
	_ = c.Src
	_ = c.Dest
	cd.U64(&c.EA)
	cd.U8(&c.Size)
	if cd.Decoding() {
		c.Decode()
	}
}
