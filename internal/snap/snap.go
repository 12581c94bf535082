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
// is the Snapshot/Restore code itself, which is why Reader.End is strict
// (the payload must be consumed exactly) and why component codecs start by
// checking a configuration fingerprint with Reader.Expect.
//
// Writer and Reader both carry a sticky error: after the first failure every
// subsequent call is a no-op (getters return zero values), so Snapshot and
// Restore implementations can be written straight-line and check Err once.
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
// implements: Snapshot serializes the component's architectural and profile
// state into w, and Restore rebuilds exactly that state from r into a
// freshly constructed component with the same configuration. Transient
// scratch state (pools, per-cycle buffers) is deliberately excluded and is
// rebuilt empty on restore.
type Checkpointable interface {
	Snapshot(w *Writer)
	Restore(r *Reader)
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

// Writer builds a snapshot in memory. All methods are no-ops after the
// first error. Writers are single-use: create with NewWriter, emit
// sections, then call Bytes or WriteFile.
type Writer struct {
	buf   []byte
	open  []int    // payload start offsets of open sections
	names []string // names of open sections (for error messages)
	err   error
}

// NewWriter returns a Writer with the format header already emitted.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, magic...)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, Version)
	return w
}

// Failf records an error; all subsequent calls become no-ops.
func (w *Writer) Failf(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("snap: "+format, args...)
	}
}

// Err returns the first error recorded on the writer.
func (w *Writer) Err() error { return w.err }

// Begin opens a named section. Every Begin must be matched by End.
func (w *Writer) Begin(name string) {
	if w.err != nil {
		return
	}
	if len(name) > 0xFFFF {
		w.Failf("section name too long (%d bytes)", len(name))
		return
	}
	w.buf = append(w.buf, sectionMarker)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(name)))
	w.buf = append(w.buf, name...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, 0) // payload length, backpatched by End
	w.open = append(w.open, len(w.buf))
	w.names = append(w.names, name)
}

// End closes the innermost open section, backpatching its payload length
// and appending the payload checksum.
func (w *Writer) End() {
	if w.err != nil {
		return
	}
	if len(w.open) == 0 {
		w.Failf("End without matching Begin")
		return
	}
	start := w.open[len(w.open)-1]
	w.open = w.open[:len(w.open)-1]
	w.names = w.names[:len(w.names)-1]
	payload := w.buf[start:]
	if len(payload) > 0x7FFFFFFF {
		w.Failf("section payload too large (%d bytes)", len(payload))
		return
	}
	binary.LittleEndian.PutUint32(w.buf[start-4:], uint32(len(payload)))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, fnv64a(payload))
}

// U64 appends a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a fixed-width little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as a fixed-width int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, v)
}

// Bool appends one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.Int(len(b))
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, s...)
}

// U64Slice appends a length-prefixed []uint64.
func (w *Writer) U64Slice(s []uint64) {
	w.Int(len(s))
	for _, v := range s {
		w.U64(v)
	}
}

// I64Slice appends a length-prefixed []int64.
func (w *Writer) I64Slice(s []int64) {
	w.Int(len(s))
	for _, v := range s {
		w.I64(v)
	}
}

// BoolSlice appends a length-prefixed []bool, one byte per element.
func (w *Writer) BoolSlice(s []bool) {
	w.Int(len(s))
	for _, v := range s {
		w.Bool(v)
	}
}

// Finish returns the encoded snapshot. It fails if any section is still
// open or an error was recorded.
func (w *Writer) Finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	if len(w.open) != 0 {
		return nil, fmt.Errorf("snap: section %q not closed", w.names[len(w.names)-1])
	}
	return w.buf, nil
}

// Reader decodes a snapshot produced by Writer. All getters return zero
// values after the first error; check Err (or use Close) once at the end.
type Reader struct {
	buf   []byte
	off   int
	ends  []int    // payload end offsets of open sections
	names []string // names of open sections (for error messages)
	err   error
}

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
	return &Reader{buf: data, off: len(magic) + 2}, nil
}

// Failf records an error; all subsequent calls become no-ops.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

// Err returns the first error recorded on the reader.
func (r *Reader) Err() error { return r.err }

// limit returns the end offset of the innermost open section (or the whole
// buffer when no section is open).
func (r *Reader) limit() int {
	if len(r.ends) == 0 {
		return len(r.buf)
	}
	return r.ends[len(r.ends)-1]
}

// need checks that n more bytes are available inside the current section.
func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > r.limit() {
		r.Failf("truncated data in section %q", r.current())
		return false
	}
	return true
}

func (r *Reader) current() string {
	if len(r.names) == 0 {
		return "<top>"
	}
	return r.names[len(r.names)-1]
}

// Begin opens the named section, verifying the marker, the name, the
// payload bounds, and the payload checksum.
func (r *Reader) Begin(name string) {
	if !r.need(1 + 2) {
		return
	}
	if r.buf[r.off] != sectionMarker {
		r.Failf("expected section %q, found no section marker", name)
		return
	}
	nameLen := int(binary.LittleEndian.Uint16(r.buf[r.off+1:]))
	r.off += 3
	if !r.need(nameLen + 4) {
		return
	}
	got := string(r.buf[r.off : r.off+nameLen])
	r.off += nameLen
	if got != name {
		r.Failf("expected section %q, found %q", name, got)
		return
	}
	payloadLen := int(binary.LittleEndian.Uint32(r.buf[r.off:]))
	r.off += 4
	if !r.need(payloadLen + 8) {
		return
	}
	payload := r.buf[r.off : r.off+payloadLen]
	want := binary.LittleEndian.Uint64(r.buf[r.off+payloadLen:])
	if sum := fnv64a(payload); sum != want {
		r.Failf("section %q checksum mismatch (corrupt snapshot)", name)
		return
	}
	r.ends = append(r.ends, r.off+payloadLen)
	r.names = append(r.names, name)
}

// End closes the innermost open section. The payload must be fully
// consumed: leftover bytes mean the reader and writer disagree about the
// schema, which is an error.
func (r *Reader) End() {
	if r.err != nil {
		return
	}
	if len(r.ends) == 0 {
		r.Failf("End without matching Begin")
		return
	}
	end := r.ends[len(r.ends)-1]
	if r.off != end {
		r.Failf("section %q has %d unread bytes", r.current(), end-r.off)
		return
	}
	r.ends = r.ends[:len(r.ends)-1]
	r.names = r.names[:len(r.names)-1]
	r.off += 8 // skip the payload checksum
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I64 reads a fixed-width little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads one byte written by Writer.Bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// sliceLen reads and sanity-checks a length prefix, where elemSize bounds
// the remaining bytes each element must occupy.
func (r *Reader) sliceLen(elemSize int) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || (elemSize > 0 && n > (r.limit()-r.off)/elemSize) {
		r.Failf("invalid length %d in section %q", n, r.current())
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice (a fresh copy).
func (r *Reader) Bytes() []byte {
	n := r.sliceLen(1)
	if r.err != nil || !r.need(n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen(1)
	if r.err != nil || !r.need(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// U64Slice reads a length-prefixed []uint64.
func (r *Reader) U64Slice() []uint64 {
	n := r.sliceLen(8)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// I64Slice reads a length-prefixed []int64.
func (r *Reader) I64Slice() []int64 {
	n := r.sliceLen(8)
	if r.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

// BoolSlice reads a length-prefixed []bool.
func (r *Reader) BoolSlice() []bool {
	n := r.sliceLen(1)
	if r.err != nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Bool()
	}
	return out
}

// Expect reads a uint64 and fails unless it equals want. Component codecs
// use it to fingerprint configuration: a snapshot can only be restored into
// a component constructed with the same configuration.
func (r *Reader) Expect(label string, want uint64) {
	got := r.U64()
	if r.err == nil && got != want {
		r.Failf("%s mismatch: snapshot has %d, this configuration has %d", label, got, want)
	}
}

// ExpectInt is Expect for int-typed configuration values.
func (r *Reader) ExpectInt(label string, want int) {
	got := r.Int()
	if r.err == nil && got != want {
		r.Failf("%s mismatch: snapshot has %d, this configuration has %d", label, got, want)
	}
}

// Close verifies the snapshot was consumed exactly: no recorded error, no
// open section, no trailing bytes.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.ends) != 0 {
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
// exposed for the sibling durable files a checkpoint run maintains (stats
// journals, result-store records): everything that can be read back after a
// crash goes through the same torn-write-free path.
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

// --- checksummed line journals ---
//
// A line journal is the append-only sibling of the atomic snapshot write:
// where WriteFileBytes replaces a whole file in one rename, a journal grows
// one record at a time (accept/tombstone logs, job queues). Each record is
// one text line, `%016x <payload>\n`, where the prefix is the FNV-64a of the
// payload bytes. Appends are single write(2) calls on an O_APPEND descriptor,
// so concurrent appenders interleave at record granularity and a crash can
// only tear the final line — which the reader detects by its checksum and
// drops. Payloads must not contain newlines (JSON objects qualify).

// EncodeJournalLine renders one journal record, checksum prefix included.
func EncodeJournalLine(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+18)
	out = append(out, fmt.Sprintf("%016x ", fnv64a(payload))...)
	out = append(out, payload...)
	return append(out, '\n')
}

// EncodeJournal renders a whole journal image from payloads — the rewrite
// half of a compaction, paired with WriteFileBytes for atomic replacement.
func EncodeJournal(payloads [][]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(out, EncodeJournalLine(p)...)
	}
	return out
}

// AppendFileLine appends one checksummed record to the journal at path,
// creating the file if needed. The record is written with a single write
// call so a crash mid-append leaves at most one torn trailing line.
func AppendFileLine(path string, payload []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(EncodeJournalLine(payload))
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// ReadFileLines returns the payload of every intact record in the journal
// at path, in append order. Reading stops at the first record that is torn
// or fails its checksum: under the single-write append discipline only the
// final line can be damaged, so everything before it is trustworthy. A
// missing journal reads as empty.
func ReadFileLines(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out [][]byte
	for len(data) > 0 {
		nl := -1
		for i, c := range data {
			if c == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // torn tail: no terminating newline
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(line) < 17 || line[16] != ' ' {
			break
		}
		var sum uint64
		if _, err := fmt.Sscanf(string(line[:16]), "%016x", &sum); err != nil {
			break
		}
		payload := line[17:]
		if fnv64a(payload) != sum {
			break
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		out = append(out, cp)
	}
	return out, nil
}
