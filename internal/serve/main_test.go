package serve

import (
	"testing"

	"ctcp/internal/leakcheck"
)

// TestMain fails the package if a goroutine outlives its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }
