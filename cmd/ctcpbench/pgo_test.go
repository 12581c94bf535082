package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"testing"
)

// TestDefaultPGONamesTheCycleLoop: default.pgo, the profile Go's default
// -pgo=auto compiles ctcpbench with, is a gzipped pprof profile whose string
// table names the cycle model's hot functions. A profile that no longer
// does (missing, truncated, or taken before they were renamed or moved)
// still builds, but silently drops the optimization.
func TestDefaultPGONamesTheCycleLoop(t *testing.T) {
	f, err := os.Open("default.pgo")
	if err != nil {
		t.Fatalf("%v: run `make pgo` to regenerate the profile", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("default.pgo does not gunzip (%v): run `make pgo` to regenerate it", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("default.pgo does not gunzip (%v): run `make pgo` to regenerate it", err)
	}
	strs, err := profileStrings(data)
	if err != nil {
		t.Fatalf("default.pgo is not a pprof profile (%v): run `make pgo` to regenerate it", err)
	}
	for _, fn := range []string{
		"ctcp/internal/pipeline.(*Pipeline).cycle",
		"ctcp/internal/pipeline.(*Pipeline).issue",
		"ctcp/internal/pipeline.(*Pipeline).retire",
		"ctcp/internal/core.(*FillUnit).CommitRetire",
	} {
		if !strs[fn] {
			t.Errorf("default.pgo does not name %s: run `make pgo` to regenerate it from the current tree", fn)
		}
	}
}

// profileStrings returns the string table of an uncompressed pprof
// profile.proto message: every string_table entry (field 6), skipping the
// other fields by wire type.
func profileStrings(data []byte) (map[string]bool, error) {
	errTrunc := errors.New("truncated field")
	strs := map[string]bool{}
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTrunc
		}
		data = data[n:]
		switch key & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(data); n <= 0 {
				return nil, errTrunc
			}
			data = data[n:]
		case 1: // fixed64
			if len(data) < 8 {
				return nil, errTrunc
			}
			data = data[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return nil, errTrunc
			}
			if key>>3 == 6 {
				strs[string(data[n:n+int(l)])] = true
			}
			data = data[n+int(l):]
		case 5: // fixed32
			if len(data) < 4 {
				return nil, errTrunc
			}
			data = data[4:]
		default:
			return nil, errors.New("unknown wire type")
		}
	}
	return strs, nil
}
