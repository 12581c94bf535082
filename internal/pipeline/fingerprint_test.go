package pipeline

import (
	"hash/fnv"
	"reflect"
	"testing"

	"ctcp/internal/core"
)

// TestFingerprintStable: equal configs hash equal, and the hash ignores the
// RetireHook observer (two processes installing different hooks must share
// cached results).
func TestFingerprintStable(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	b.RetireHook = func(core.RetireInfo) {}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("RetireHook changed the fingerprint; observers must be excluded")
	}
}

// TestFingerprintSensitive: every class of result-determining field moves the
// hash — top-level ints, nested struct fields, bools, strings, and the
// budget.
func TestFingerprintSensitive(t *testing.T) {
	base := DefaultConfig()
	fp := base.Fingerprint()
	mutate := []struct {
		name string
		f    func(*Config)
	}{
		{"strategy", func(c *Config) { *c = c.WithStrategy(core.FDRT, false) }},
		{"rob", func(c *Config) { c.ROBSize++ }},
		{"geometry", func(c *Config) { c.Geom.HopLat++ }},
		{"bpred", func(c *Config) { c.BP.HistoryBits++ }},
		{"mem", func(c *Config) { c.Mem.L2Lat++ }},
		{"cache-name", func(c *Config) { c.ICache.Name = "L1I'" }},
		{"flag", func(c *Config) { c.ZeroAllFwdLat = true }},
		{"budget", func(c *Config) { c.MaxInsts = 12345 }},
		{"trace-maxlen", func(c *Config) { c.Trace.MaxLen++ }},
	}
	seen := map[uint64]string{fp: "base"}
	for _, m := range mutate {
		c := base
		m.f(&c)
		got := c.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Errorf("mutation %q collides with %q (fingerprint %016x)", m.name, prev, got)
		}
		seen[got] = m.name
	}
}

// TestFingerprintPinsModelRevision pins the Table 7 configuration's
// fingerprint. The pin moves when modelRevision or Config's layout changes,
// and either re-keys every result store, so update it only deliberately. A
// fingerprint computed without the revision, as before it existed, must
// not match.
func TestFingerprintPinsModelRevision(t *testing.T) {
	const want = uint64(0xf8186d63c50c8ed1)
	c := DefaultConfig()
	if got := c.Fingerprint(); got != want {
		t.Errorf("DefaultConfig fingerprint %#016x, pinned %#016x (model revision %d)", got, want, modelRevision)
	}
	if hashStruct(struct{ Config Config }{c}) == c.Fingerprint() {
		t.Error("the fingerprint ignores modelRevision")
	}
}

// hashStruct is hashFields' hash of the struct v.
func hashStruct(v any) uint64 {
	h := fnv.New64a()
	hashFields(h, reflect.ValueOf(v))
	return h.Sum64()
}

// TestFingerprintIgnoresZeroFields: a field holding its zero value hashes
// as if it were absent, so adding a field whose zero value keeps the old
// behaviour, or deleting one that was always zero, re-keys nothing. A
// non-zero value still moves the hash.
func TestFingerprintIgnoresZeroFields(t *testing.T) {
	type before struct {
		Lat  int
		Name string
	}
	type after struct {
		Lat   int
		Name  string
		Extra struct {
			On    bool
			Scale float64
		}
	}
	old := hashStruct(before{Lat: 3, Name: "L1"})
	grown := after{Lat: 3, Name: "L1"}
	if got := hashStruct(grown); got != old {
		t.Errorf("a zero-valued new field moved the fingerprint: %#016x vs %#016x", got, old)
	}
	grown.Extra.On = true
	if hashStruct(grown) == old {
		t.Error("setting the new field left the fingerprint unchanged")
	}
}
