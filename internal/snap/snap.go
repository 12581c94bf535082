// Package snap is the simulator's checkpoint codec: a versioned,
// endianness-fixed, deterministic binary encoding with per-section
// checksums, built only on the standard library.
//
// The format is a flat byte stream opened by an 8-byte magic ("CTCPSNP1")
// and a little-endian uint16 format version. After the header the stream is
// a sequence of nested named sections. Each section is encoded as
//
//	0xA5 | u16 name length | name bytes | u32 payload length | payload | u64 FNV-64a(payload)
//
// with all integers little-endian and fixed width. Sections nest: a child
// section's full encoding (marker through checksum) is part of its parent's
// payload, so parent checksums cover children. Scalars inside a payload are
// raw fixed-width little-endian values with no per-value tags; the schema
// is each component's Checkpoint method (for stats structs, their field
// declaration order; see Codec.Counters), which is why End is strict when
// decoding (the payload must be consumed exactly) and why component codecs
// start by checking a configuration fingerprint with Codec.Check.
//
// One Codec type serves both directions. Each value method takes a pointer:
// encoding appends the value it points to, decoding stores through it. A
// component therefore states its layout once, in one Checkpoint method that
// makes the same calls either way; Writer and Reader wrap a Codec and add
// only what is specific to one direction. A Codec carries a sticky error:
// after the first failure every subsequent call is a no-op that stores
// nothing, so Checkpoint implementations can be written straight-line and
// check Err once.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Format identification.
const (
	magic = "CTCPSNP1"
	// Version is the current checkpoint format version. Readers reject
	// snapshots written under any other version.
	Version uint16 = 1

	sectionMarker = 0xA5
)

// Checkpointable is the contract every stateful simulator component
// implements: Checkpoint codes the component's architectural and profile
// state. Encoding, it appends that state to c; decoding, it rebuilds
// exactly that state from c into a component constructed with the same
// configuration. Transient scratch state (pools, per-cycle buffers) is
// deliberately excluded and is rebuilt empty on decode.
type Checkpointable interface {
	Checkpoint(c *Codec)
}

// fnv64a is the FNV-64a hash used for per-section checksums.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Codec encodes or decodes one snapshot; which, is fixed when its Writer or
// Reader is made. All methods are no-ops after the first error.
type Codec struct {
	dec   bool
	buf   []byte
	off   int      // decoding: the read position in buf
	open  []int    // open sections: payload start offsets (encoding) or end offsets (decoding)
	names []string // names of open sections (for error messages)
	err   error
}

// Decoding reports whether c decodes. Sections that are not a field-by-field
// image of their state (sorted key lists, presence bits) branch on it.
func (c *Codec) Decoding() bool { return c.dec }

// Failf records an error; all subsequent calls become no-ops.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("snap: "+format, args...)
	}
}

// Err returns the first error recorded on the codec.
func (c *Codec) Err() error { return c.err }

// limit returns the end offset of the innermost open section being decoded
// (or the whole buffer when no section is open).
func (c *Codec) limit() int {
	if len(c.open) == 0 {
		return len(c.buf)
	}
	return c.open[len(c.open)-1]
}

// need checks that n more bytes are available inside the section being
// decoded.
func (c *Codec) need(n int) bool {
	if c.err != nil {
		return false
	}
	if c.off+n > c.limit() {
		c.Failf("truncated data in section %q", c.current())
		return false
	}
	return true
}

func (c *Codec) current() string {
	if len(c.names) == 0 {
		return "<top>"
	}
	return c.names[len(c.names)-1]
}

// Begin opens a named section; every Begin must be matched by End.
// Encoding writes the section header. Decoding verifies the marker, the
// name, the payload bounds, and the payload checksum.
func (c *Codec) Begin(name string) {
	if c.err != nil {
		return
	}
	if !c.dec {
		if len(name) > 0xFFFF {
			c.Failf("section name too long (%d bytes)", len(name))
			return
		}
		c.buf = append(c.buf, sectionMarker)
		c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(len(name)))
		c.buf = append(c.buf, name...)
		c.buf = binary.LittleEndian.AppendUint32(c.buf, 0) // payload length, backpatched by End
		c.open = append(c.open, len(c.buf))
		c.names = append(c.names, name)
		return
	}
	if !c.need(1 + 2) {
		return
	}
	if c.buf[c.off] != sectionMarker {
		c.Failf("expected section %q, found no section marker", name)
		return
	}
	nameLen := int(binary.LittleEndian.Uint16(c.buf[c.off+1:]))
	c.off += 3
	if !c.need(nameLen + 4) {
		return
	}
	got := string(c.buf[c.off : c.off+nameLen])
	c.off += nameLen
	if got != name {
		c.Failf("expected section %q, found %q", name, got)
		return
	}
	payloadLen := int(binary.LittleEndian.Uint32(c.buf[c.off:]))
	c.off += 4
	if !c.need(payloadLen + 8) {
		return
	}
	payload := c.buf[c.off : c.off+payloadLen]
	if fnv64a(payload) != binary.LittleEndian.Uint64(c.buf[c.off+payloadLen:]) {
		c.Failf("section %q checksum mismatch (corrupt snapshot)", name)
		return
	}
	c.open = append(c.open, c.off+payloadLen)
	c.names = append(c.names, name)
}

// End closes the innermost open section. Encoding backpatches its payload
// length and appends the payload checksum. Decoding requires the payload to
// be consumed exactly: leftover bytes mean the two directions disagree
// about the schema, which is an error.
func (c *Codec) End() {
	if c.err != nil {
		return
	}
	if len(c.open) == 0 {
		c.Failf("End without matching Begin")
		return
	}
	at := c.open[len(c.open)-1]
	if c.dec && c.off != at {
		c.Failf("section %q has %d unread bytes", c.current(), at-c.off)
		return
	}
	c.open = c.open[:len(c.open)-1]
	c.names = c.names[:len(c.names)-1]
	if c.dec {
		c.off += 8 // skip the payload checksum
		return
	}
	payload := c.buf[at:]
	if len(payload) > 0x7FFFFFFF {
		c.Failf("section payload too large (%d bytes)", len(payload))
		return
	}
	binary.LittleEndian.PutUint32(c.buf[at-4:], uint32(len(payload)))
	c.buf = binary.LittleEndian.AppendUint64(c.buf, fnv64a(payload))
}

// U64 codes a fixed-width little-endian uint64.
func (c *Codec) U64(v *uint64) {
	switch {
	case c.err != nil:
	case !c.dec:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	case c.need(8):
		*v = binary.LittleEndian.Uint64(c.buf[c.off:])
		c.off += 8
	}
}

// I64 codes a fixed-width little-endian int64.
func (c *Codec) I64(v *int64) {
	u := uint64(*v)
	if c.U64(&u); c.dec {
		*v = int64(u)
	}
}

// Int codes an int as a fixed-width int64.
func (c *Codec) Int(v *int) {
	u := uint64(*v)
	if c.U64(&u); c.dec {
		*v = int(int64(u))
	}
}

// U8 codes one byte.
func (c *Codec) U8(v *uint8) {
	switch {
	case c.err != nil:
	case !c.dec:
		c.buf = append(c.buf, *v)
	case c.need(1):
		*v = c.buf[c.off]
		c.off++
	}
}

// Bool codes one byte (0 or 1).
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if c.U8(&b); c.dec {
		*v = b != 0
	}
}

// Len codes a length prefix. Decoding refuses a negative length, or one
// whose elements, at least elemSize bytes each, cannot fit in what is left
// of the section, and leaves *n zero after any error, so a loop over it
// does nothing.
func (c *Codec) Len(n *int, elemSize int) {
	if c.Int(n); !c.dec {
		return
	}
	if c.err == nil && (*n < 0 || (elemSize > 0 && *n > (c.limit()-c.off)/elemSize)) {
		c.Failf("invalid length %d in section %q", *n, c.current())
	}
	if c.err != nil {
		*n = 0
	}
}

// raw codes len(b) bytes with no length prefix: encoding appends b,
// decoding copies into it.
func (c *Codec) raw(b []byte) {
	switch {
	case c.err != nil:
	case !c.dec:
		c.buf = append(c.buf, b...)
	case c.need(len(b)):
		c.off += copy(b, c.buf[c.off:])
	}
}

// Bytes codes a length-prefixed byte slice; decoding stores a fresh copy.
func (c *Codec) Bytes(b *[]byte) {
	n := len(*b)
	if c.Len(&n, 1); c.dec && c.err == nil {
		*b = make([]byte, n)
	}
	c.raw(*b)
}

// Fill codes a length-prefixed byte slice in place: decoding copies the
// bytes into b and refuses a length other than len(b). It serves storage
// the decoder already owns (emu's memory pages), which a decode must
// neither replace nor leave aliasing the snapshot.
func (c *Codec) Fill(b []byte) {
	n := len(b)
	if c.Len(&n, 1); c.err == nil && n != len(b) {
		c.Failf("%d bytes in section %q where %d belong", n, c.current(), len(b))
	}
	c.raw(b)
}

// String codes a length-prefixed string.
func (c *Codec) String(s *string) {
	n := len(*s)
	switch c.Len(&n, 1); {
	case c.err != nil:
	case !c.dec:
		c.buf = append(c.buf, *s...)
	case c.need(n):
		*s = string(c.buf[c.off : c.off+n])
		c.off += n
	}
}

// U64s codes a length-prefixed []uint64; decoding stores a fresh slice.
func (c *Codec) U64s(s *[]uint64) {
	n := len(*s)
	if c.Len(&n, 8); c.dec && c.err == nil {
		*s = make([]uint64, n)
	}
	for i := range *s {
		c.U64(&(*s)[i])
	}
}

// I64s codes a length-prefixed []int64; decoding stores a fresh slice.
func (c *Codec) I64s(s *[]int64) {
	n := len(*s)
	if c.Len(&n, 8); c.dec && c.err == nil {
		*s = make([]int64, n)
	}
	for i := range *s {
		c.I64(&(*s)[i])
	}
}

// Bools codes a length-prefixed []bool, one byte per element; decoding
// stores a fresh slice.
func (c *Codec) Bools(s *[]bool) {
	n := len(*s)
	if c.Len(&n, 1); c.dec && c.err == nil {
		*s = make([]bool, n)
	}
	for i := range *s {
		c.Bool(&(*s)[i])
	}
}

// Check codes a configuration fingerprint: encoding writes want, decoding
// refuses any other value. A snapshot can only be decoded into a component
// constructed with the same configuration.
func (c *Codec) Check(label string, want uint64) {
	got := want
	if c.U64(&got); got != want {
		c.Failf("%s mismatch: snapshot has %d, this configuration has %d", label, got, want)
	}
}

// CheckInt is Check for int-typed configuration values.
func (c *Codec) CheckInt(label string, want int) {
	got := want
	if c.Int(&got); got != want {
		c.Failf("%s mismatch: snapshot has %d, this configuration has %d", label, got, want)
	}
}

// Writer encodes a snapshot in memory. Writers are single-use: create one
// with NewWriter or NewWriterBuffer, code sections into its Codec, then
// call Finish or WriteFile.
type Writer struct{ Codec }

// NewWriter returns a Writer with the format header already emitted.
func NewWriter() *Writer { return NewWriterBuffer(make([]byte, 0, 4096)) }

// NewWriterBuffer is NewWriter encoding into buf's storage: the snapshot
// overwrites buf from its start and grows past cap(buf) only if it must.
// Callers that recycle finished snapshots (sample.Run's checkpoints) or
// know roughly how large one will be pass the storage here; the encoding
// never depends on what buf held.
func NewWriterBuffer(buf []byte) *Writer {
	w := &Writer{Codec{buf: buf[:0]}}
	w.buf = append(w.buf, magic...)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, Version)
	return w
}

// Finish returns the encoded snapshot. It fails if any section is still
// open or an error was recorded.
func (w *Writer) Finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	if len(w.open) != 0 {
		return nil, fmt.Errorf("snap: section %q not closed", w.current())
	}
	return w.buf, nil
}

// Reader decodes a snapshot produced by Writer through its Codec; check Err
// (or use Close) once at the end.
type Reader struct{ Codec }

// NewReader validates the format header and returns a Reader positioned at
// the first section.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < len(magic)+2 {
		return nil, errors.New("snap: truncated header")
	}
	if string(data[:len(magic)]) != magic {
		return nil, errors.New("snap: bad magic (not a CTCP snapshot)")
	}
	v := binary.LittleEndian.Uint16(data[len(magic):])
	if v != Version {
		return nil, fmt.Errorf("snap: format version %d (this build reads version %d)", v, Version)
	}
	return &Reader{Codec{dec: true, buf: data, off: len(magic) + 2}}, nil
}

// Close verifies the snapshot was consumed exactly: no recorded error, no
// open section, no trailing bytes.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.open) != 0 {
		return fmt.Errorf("snap: section %q not closed", r.current())
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snap: %d trailing bytes after last section", len(r.buf)-r.off)
	}
	return nil
}

// WriteFile atomically writes the finished snapshot to path: the bytes go
// to a temporary file in the same directory which is then renamed over
// path, so a crash mid-write never leaves a truncated checkpoint behind.
func WriteFile(path string, w *Writer) error {
	data, err := w.Finish()
	if err != nil {
		return err
	}
	return WriteFileBytes(path, data)
}

// WriteFileBytes is the atomic temp+rename write underneath WriteFile,
// exposed for the sibling durable files of a store directory (result
// records, named saves, accepted ctcpd jobs): everything that can be read
// back after a crash goes through the same torn-write-free path.
func WriteFileBytes(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// ReadFile reads a snapshot file and validates its header.
func ReadFile(path string) (*Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return NewReader(data)
}
