package pipeline

import (
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
	const want = uint64(0x79686710db3d2bbf)
	c := DefaultConfig()
	if got := c.Fingerprint(); got != want {
		t.Errorf("DefaultConfig fingerprint %#016x, pinned %#016x (model revision %d)", got, want, modelRevision)
	}
	unrevised := fnvOffset
	fingerprintValue(&unrevised, "Config", reflect.ValueOf(c))
	if unrevised == c.Fingerprint() {
		t.Error("the fingerprint ignores modelRevision")
	}
}
