package isa

import "ctcp/internal/snap"

// Checkpoint codes the decoded instruction. Inst is a leaf value: it codes
// raw fields with no section of its own, relying on the enclosing component
// section for checksumming.
func (i *Inst) Checkpoint(c *snap.Codec) {
	c.U8((*uint8)(&i.Op))
	c.U8((*uint8)(&i.Ra))
	c.U8((*uint8)(&i.Rb))
	c.U8((*uint8)(&i.Rc))
	c.I64(&i.Imm)
	c.Bool(&i.UseImm)
}
