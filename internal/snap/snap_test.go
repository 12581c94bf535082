package snap

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSample emits one snapshot exercising every scalar and slice type
// plus nested sections.
func writeSample() *Writer { return fillSample(NewWriter()) }

// fillSample emits the sample sections into w.
func fillSample(w *Writer) *Writer {
	w.Begin("outer")
	w.U64(0xDEADBEEF01234567)
	w.I64(-42)
	w.Int(7)
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.Begin("inner")
	w.U64Slice([]uint64{9, 8, 7})
	w.I64Slice([]int64{-1, 0, 1})
	w.BoolSlice([]bool{true, false, true})
	w.End()
	w.U64(99)
	w.End()
	return w
}

func readSample(t *testing.T, data []byte) {
	t.Helper()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("outer")
	if got := r.U64(); got != 0xDEADBEEF01234567 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 7 {
		t.Errorf("Int = %d", got)
	}
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.Bytes(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	r.Begin("inner")
	if got := r.U64Slice(); len(got) != 3 || got[0] != 9 || got[2] != 7 {
		t.Errorf("U64Slice = %v", got)
	}
	if got := r.I64Slice(); len(got) != 3 || got[0] != -1 || got[2] != 1 {
		t.Errorf("I64Slice = %v", got)
	}
	if got := r.BoolSlice(); len(got) != 3 || !got[0] || got[1] {
		t.Errorf("BoolSlice = %v", got)
	}
	r.End()
	if got := r.U64(); got != 99 {
		t.Errorf("trailing U64 = %d", got)
	}
	r.End()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	data, err := writeSample().Finish()
	if err != nil {
		t.Fatal(err)
	}
	readSample(t, data)
}

// TestBytesView: the view reads what Bytes reads, aliases the snapshot
// instead of copying it, and cannot be appended into the bytes after it.
func TestBytesView(t *testing.T) {
	w := NewWriter()
	w.Begin("s")
	w.Bytes([]byte{1, 2, 3})
	w.U64(99)
	w.End()
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("s")
	v := r.BytesView()
	if string(v) != "\x01\x02\x03" {
		t.Errorf("BytesView = %v, want [1 2 3]", v)
	}
	if cap(v) != len(v) {
		t.Errorf("view has capacity %d past its %d bytes", cap(v), len(v))
	}
	data[len(magic)+2+3+1+4+8] = 7 // the view's first byte, in place
	if v[0] != 7 {
		t.Error("BytesView copied the bytes")
	}
	if got := r.U64(); got != 99 {
		t.Errorf("U64 after the view = %d, want 99", got)
	}

	// A length prefix that runs past the section's payload must fail.
	w = NewWriter()
	w.Begin("s")
	w.Int(100)
	w.U8(1)
	w.End()
	if data, err = w.Finish(); err != nil {
		t.Fatal(err)
	}
	if r, err = NewReader(data); err != nil {
		t.Fatal(err)
	}
	r.Begin("s")
	if r.BytesView() != nil || r.Err() == nil {
		t.Error("a view past the payload's end did not fail")
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
	got, err := fillSample(NewWriterBuffer(buf)).Finish()
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
	got, err = fillSample(NewWriterBuffer(dirty(len(want) / 2))).Finish()
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
			silent := true
			r.Begin("outer")
			r.U64()
			r.I64()
			r.Int()
			r.U8()
			r.Bool()
			r.Bool()
			r.Bytes()
			_ = r.String()
			r.Begin("inner")
			r.U64Slice()
			r.I64Slice()
			r.BoolSlice()
			r.End()
			r.U64()
			r.End()
			if r.Close() != nil {
				silent = false
			}
			if silent {
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
	w.Begin("alpha")
	w.U64(1)
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
	w.Begin("s")
	w.U64(1)
	w.U64(2)
	w.End()
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("s")
	r.U64() // leave one value unread
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
	r2.U64()
	r2.U64()
	r2.U64()
	if r2.Err() == nil {
		t.Error("read past section end accepted")
	}
}

func TestUnclosedSection(t *testing.T) {
	w := NewWriter()
	w.Begin("open")
	w.U64(1)
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
	w.U64(1)
	w.Begin("x")
	if _, err := w.Finish(); err == nil {
		t.Error("Finish ignored sticky error")
	}

	r, err := NewReader(mustBytes(t, writeSample()))
	if err != nil {
		t.Fatal(err)
	}
	r.Failf("boom")
	if r.U64() != 0 || r.Int() != 0 || r.String() != "" || r.Bytes() != nil {
		t.Error("getters returned data after sticky error")
	}
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "boom") {
		t.Errorf("reader sticky error = %v", r.Err())
	}
}

func TestExpect(t *testing.T) {
	w := NewWriter()
	w.Begin("cfg")
	w.U64(4)
	w.Int(16)
	w.End()
	data := mustBytes(t, w)

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("cfg")
	r.Expect("clusters", 4)
	r.ExpectInt("width", 16)
	r.End()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r2.Begin("cfg")
	r2.Expect("clusters", 8)
	if r2.Err() == nil || !strings.Contains(r2.Err().Error(), "clusters") {
		t.Errorf("Expect mismatch not reported: %v", r2.Err())
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
	// Spot-check the file round-trips through the same reader path.
	r.Begin("outer")
	if got := r.U64(); got != 0xDEADBEEF01234567 {
		t.Errorf("file round-trip U64 = %#x", got)
	}

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

// TestWriteFileBytes: the raw-byte atomic write replaces an existing file in
// one rename (readers never observe a truncated intermediate) and leaves no
// temp files behind.
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
