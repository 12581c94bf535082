// Fixture for the suppression audit: loaded by lint_test.go under the
// ctcp/internal/serve import path, run through maporder + lockheld, then
// audited. The used waivers must stay silent; the stale ones must be
// reported at the waiver's own line.
package fixture

// A suppression that really covers a finding is kept.
func usedSuppression(m map[string]int) int {
	t := 0
	for _, v := range m { //ctcp:lint-ok maporder -- pure accumulation; order-insensitive
		t += v
	}
	return t
}

// A suppression on a line that no longer produces the finding is stale.
func staleSuppression(s []int) int {
	t := 0
	for _, v := range s { //ctcp:lint-ok maporder -- slices are ordered want:suppressaudit
		t += v
	}
	return t
}
