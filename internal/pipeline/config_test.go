package pipeline

import (
	"strings"
	"testing"

	"ctcp/internal/core"
)

// TestValidate checks that Validate accepts the paper's configurations and
// names the field of a configuration the model cannot run.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		f       func(*Config)
		wantErr string // "" = valid
	}{
		{"table7", func(*Config) {}, ""},
		{"fdrt", func(c *Config) { *c = c.WithStrategy(core.FDRT, false) }, ""},
		{"2x4 with 8-long traces", func(c *Config) {
			c.Geom.Clusters, c.FetchWidth, c.RetireWidth, c.Trace.MaxLen = 2, 8, 8, 8
		}, ""},
		{"2x4 with 16-long traces", func(c *Config) {
			*c = c.WithStrategy(core.FDRT, false)
			c.Geom.Clusters = 2
		}, "trace MaxLen 16 exceeds the 8 issue slots"},
		{"no clusters", func(c *Config) { c.Geom.Clusters = 0 }, "positive Clusters"},
		{"empty ROB", func(c *Config) { c.ROBSize = 0 }, "ROBSize 0"},
	} {
		cfg := DefaultConfig()
		tc.f(&cfg)
		err := cfg.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}
