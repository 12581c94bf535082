package snap

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sample holds one value of every kind the codec codes.
type sample struct {
	u64     uint64
	i64     int64
	n       int
	u8      uint8
	yes, no bool
	bytes   []byte
	str     string
	u64s    []uint64
	i64s    []int64
	bools   []bool
	last    uint64
}

func wantSample() sample {
	return sample{
		u64: 0xDEADBEEF01234567, i64: -42, n: 7, u8: 0xAB, yes: true,
		bytes: []byte{1, 2, 3}, str: "hello",
		u64s: []uint64{9, 8, 7}, i64s: []int64{-1, 0, 1}, bools: []bool{true, false, true},
		last: 99,
	}
}

// codeSample codes v in nested sections, one call per value. The same calls
// write the sample and read it back.
func codeSample(c *Codec, v *sample) {
	c.Begin("outer")
	c.U64(&v.u64)
	c.I64(&v.i64)
	c.Int(&v.n)
	c.U8(&v.u8)
	c.Bool(&v.yes)
	c.Bool(&v.no)
	c.Bytes(&v.bytes)
	c.String(&v.str)
	c.Begin("inner")
	c.U64s(&v.u64s)
	c.I64s(&v.i64s)
	c.Bools(&v.bools)
	c.End()
	c.U64(&v.last)
	c.End()
}

// writeSample encodes the sample into a new writer.
func writeSample() *Writer { return encodeSample(NewWriter()) }

// encodeSample encodes the sample into w.
func encodeSample(w *Writer) *Writer {
	v := wantSample()
	codeSample(&w.Codec, &v)
	return w
}

// readSample decodes the sample from r and requires it to be the one
// written, consumed exactly.
func readSample(t *testing.T, r *Reader) {
	t.Helper()
	var got sample
	codeSample(&r.Codec, &got)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if want := wantSample(); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
}

func TestRoundTrip(t *testing.T) {
	data, err := writeSample().Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	readSample(t, r)
}

// TestFill: Fill writes what Bytes writes, decodes into the storage it is
// given without aliasing the snapshot, and refuses a length other than that
// storage's or one that runs past the section's payload.
func TestFill(t *testing.T) {
	w := NewWriter()
	w.Begin("s")
	w.Fill([]byte{1, 2, 3})
	ninetyNine := uint64(99)
	w.U64(&ninetyNine)
	w.End()
	data := mustBytes(t, w)
	w = NewWriter()
	w.Begin("s")
	w.Bytes(&[]byte{1, 2, 3})
	w.U64(&ninetyNine)
	w.End()
	if !bytes.Equal(mustBytes(t, w), data) {
		t.Error("Fill and Bytes encode differently")
	}

	decode := func(data []byte, dst []byte) *Reader {
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		r.Begin("s")
		r.Fill(dst)
		return r
	}
	dst := make([]byte, 3)
	r := decode(data, dst)
	if string(dst) != "\x01\x02\x03" {
		t.Errorf("Fill decoded %v, want [1 2 3]", dst)
	}
	at := len(magic) + 2 + 3 + 1 + 4 + 8 // the encoded first byte
	data[at] = 7
	if dst[0] != 1 {
		t.Error("Fill aliased the snapshot instead of copying it")
	}
	data[at] = 1
	var got uint64
	if r.U64(&got); got != 99 {
		t.Errorf("U64 after Fill = %d, want 99", got)
	}

	// A length other than the storage's fails and stores nothing.
	dst = []byte{5, 5, 5, 5}
	if r = decode(data, dst); r.Err() == nil || !strings.Contains(r.Err().Error(), "where 4") || dst[0] != 5 {
		t.Errorf("Fill of 3 bytes into 4 decoded %v (err %v), want a refusal", dst, r.Err())
	}

	// A length prefix that runs past the section's payload must fail.
	w = NewWriter()
	w.Begin("s")
	hundred, one := 100, uint8(1)
	w.Int(&hundred)
	w.U8(&one)
	w.End()
	dst = make([]byte, 100)
	if r = decode(mustBytes(t, w), dst); r.Err() == nil || !strings.Contains(r.Err().Error(), "invalid length 100") || dst[0] != 0 {
		t.Error("a Fill past the payload's end did not fail")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	a, err := writeSample().Finish()
	if err != nil {
		t.Fatal(err)
	}
	b, err := writeSample().Finish()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("two identical writes produced different bytes")
	}
}

// TestWriterBufferIsOnlyStorage: a writer fills the storage it is given
// without reallocating when the snapshot fits, and what that storage held
// before, or whether it was large enough, changes no encoded byte.
func TestWriterBufferIsOnlyStorage(t *testing.T) {
	want, err := writeSample().Finish()
	if err != nil {
		t.Fatal(err)
	}
	dirty := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = 0xEE
		}
		return b
	}

	buf := dirty(len(want))
	got, err := encodeSample(NewWriterBuffer(buf)).Finish()
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] || cap(got) != cap(buf) {
		t.Error("a snapshot that fits its buffer was encoded elsewhere")
	}
	if string(got) != string(want) {
		t.Error("encoding into a used buffer changed the bytes")
	}

	// Too small: the writer grows past the buffer mid-encoding.
	got, err = encodeSample(NewWriterBuffer(dirty(len(want) / 2))).Finish()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("growing past the buffer changed the bytes")
	}
}

func TestCorruptionDetected(t *testing.T) {
	data, err := writeSample().Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte after the header, one at a time: each corruption must
	// be caught (checksum, bounds, name, or marker failure) — never a clean
	// read of wrong data without any error.
	headerLen := len(magic) + 2
	for i := headerLen; i < len(data); i++ {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[i] ^= 0x40
		r, err := NewReader(mut)
		if err != nil {
			continue // header-adjacent damage
		}
		func() {
			defer func() { recover() }() // any panic is a failure mode we don't allow
			codeSample(&r.Codec, &sample{})
			if r.Close() == nil {
				t.Errorf("byte %d corrupted: read completed without error", i)
			}
		}()
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewReader([]byte("NOTASNAP\x01\x00")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader([]byte{1, 2}); err == nil {
		t.Error("truncated header accepted")
	}
	data, err := writeSample().Finish()
	if err != nil {
		t.Fatal(err)
	}
	mut := make([]byte, len(data))
	copy(mut, data)
	mut[len(magic)]++ // bump the version field
	if _, err := NewReader(mut); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted (err=%v)", err)
	}
}

func TestSectionNameMismatch(t *testing.T) {
	w := NewWriter()
	one := uint64(1)
	w.Begin("alpha")
	w.U64(&one)
	w.End()
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("beta")
	if r.Err() == nil {
		t.Error("wrong section name accepted")
	}
}

func TestStrictSectionConsumption(t *testing.T) {
	w := NewWriter()
	one, two := uint64(1), uint64(2)
	w.Begin("s")
	w.U64(&one)
	w.U64(&two)
	w.End()
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var v uint64
	r.Begin("s")
	r.U64(&v) // leave one value unread
	r.End()
	if r.Err() == nil {
		t.Error("unread payload bytes accepted by End")
	}

	// Reading past the payload is also an error, not a read into a sibling.
	r2, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r2.Begin("s")
	r2.U64(&v)
	r2.U64(&v)
	r2.U64(&v)
	if r2.Err() == nil {
		t.Error("read past section end accepted")
	}
}

func TestUnclosedSection(t *testing.T) {
	w := NewWriter()
	one := uint64(1)
	w.Begin("open")
	w.U64(&one)
	if _, err := w.Finish(); err == nil {
		t.Error("Finish succeeded with an open section")
	}
}

func TestStickyErrors(t *testing.T) {
	w := NewWriter()
	w.Failf("first %s", "failure")
	w.Failf("second")
	if w.Err() == nil || !strings.Contains(w.Err().Error(), "first failure") {
		t.Errorf("writer sticky error = %v", w.Err())
	}
	one := uint64(1)
	w.U64(&one)
	w.Begin("x")
	if _, err := w.Finish(); err == nil {
		t.Error("Finish ignored sticky error")
	}

	r, err := NewReader(mustBytes(t, writeSample()))
	if err != nil {
		t.Fatal(err)
	}
	r.Failf("boom")
	u, n, str, b := uint64(1), 2, "kept", []byte{3}
	r.U64(&u)
	r.Int(&n)
	r.String(&str)
	r.Bytes(&b)
	if u != 1 || n != 2 || str != "kept" || len(b) != 1 || b[0] != 3 {
		t.Error("decoding stored data after sticky error")
	}
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "boom") {
		t.Errorf("reader sticky error = %v", r.Err())
	}
}

// TestCheck: encoding a check writes the value it expects, and decoding
// refuses any other.
func TestCheck(t *testing.T) {
	w := NewWriter()
	w.Begin("cfg")
	w.Check("clusters", 4)
	w.CheckInt("width", 16)
	w.End()
	data := mustBytes(t, w)

	hand := NewWriter()
	four, sixteen := uint64(4), 16
	hand.Begin("cfg")
	hand.U64(&four)
	hand.Int(&sixteen)
	hand.End()
	if !bytes.Equal(mustBytes(t, hand), data) {
		t.Error("Check and CheckInt do not write the values they expect")
	}

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("cfg")
	r.Check("clusters", 4)
	r.CheckInt("width", 16)
	r.End()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r2.Begin("cfg")
	r2.Check("clusters", 8)
	if r2.Err() == nil || !strings.Contains(r2.Err().Error(), "clusters") {
		t.Errorf("Check mismatch not reported: %v", r2.Err())
	}

	r3, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r3.Begin("cfg")
	r3.Check("clusters", 4)
	r3.CheckInt("width", 32)
	if r3.Err() == nil || !strings.Contains(r3.Err().Error(), "width") {
		t.Errorf("CheckInt mismatch not reported: %v", r3.Err())
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub.ckpt")
	if err := WriteFile(path, writeSample()); err != nil {
		t.Fatal(err)
	}
	r, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file round-trips through the same decoding path.
	readSample(t, r)

	// No temp files left behind by the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}

	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Error("ReadFile on a missing path succeeded")
	}
}

func TestWriteFileBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	if err := WriteFileBytes(path, []byte("first version, longer payload")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileBytes(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Errorf("content = %q, want the full replacement", got)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
	if err := WriteFileBytes(filepath.Join(t.TempDir(), "no/such/dir/x"), []byte("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

func mustBytes(t *testing.T, w *Writer) []byte {
	t.Helper()
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
