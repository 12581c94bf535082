package lint

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// wantKey identifies one expected diagnostic: fixture file base name, line,
// rule.
type wantKey struct {
	file string
	line int
	rule string
}

// parseWant scans a fixture package's comments for `want:<rule>` markers. A
// marker means "at least one diagnostic of <rule> on this line"; every line
// without one must stay silent. The fixtures also carry //ctcp:lint-ok
// comments (both the trailing and the comment-above form), so the same
// bidirectional comparison exercises suppression: a suppressed line has no
// want marker and must produce nothing.
func parseWant(pkg *Package) map[wantKey]bool {
	want := map[wantKey]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, field := range strings.Fields(c.Text) {
					rule, ok := strings.CutPrefix(field, "want:")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					want[wantKey{filepath.Base(pos.Filename), pos.Line, rule}] = true
				}
			}
		}
	}
	return want
}

// TestAnalyzerFixtures loads each analyzer's fixture under an import path the
// analyzer scopes to and compares its diagnostics against the fixture's
// want markers in both directions.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		dir        string
		importPath string
		analyzer   *Analyzer
	}{
		{"maporder", "ctcp/internal/experiment", MapOrder},
		{"nondet", "ctcp/internal/emu", NonDet},
		{"floateq", "ctcp/internal/stats", FloatEq},
		{"configvalidate", "ctcp/internal/pipeline", ConfigValidate},
		{"configmissing", "ctcp/internal/pipeline", ConfigValidate},
		{"snapcomplete", "ctcp/internal/fixture", SnapComplete},
		{"writecheck", "ctcp/cmd/fixture", WriteCheck},
		{"writecheck_serve", "ctcp/internal/serve", WriteCheck},
		{"lockheld", "ctcp/internal/serve", LockHeld},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			if tc.analyzer.Match != nil && !tc.analyzer.Match(tc.importPath) {
				t.Fatalf("case error: %s does not match import path %s", tc.analyzer.Name, tc.importPath)
			}
			// A fresh Loader per case keeps fixture packages loaded under
			// synthetic module paths out of each other's memo tables.
			l, err := NewLoader(".")
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := l.LoadDirAs(filepath.Join("testdata", "src", tc.dir), tc.importPath)
			if err != nil {
				t.Fatal(err)
			}
			got := Run([]*Package{pkg}, []*Analyzer{tc.analyzer})
			want := parseWant(pkg)

			seen := map[wantKey]bool{}
			for _, d := range got {
				k := wantKey{filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule}
				if !want[k] {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				seen[k] = true
			}
			var missing []string
			for k := range want { //ctcp:lint-ok maporder -- missing-set is sorted before reporting
				if !seen[k] {
					missing = append(missing, k.file+":"+itoa(k.line)+": "+k.rule)
				}
			}
			sort.Strings(missing)
			for _, m := range missing {
				t.Errorf("missing diagnostic: %s", m)
			}
		})
	}
}

// TestSuppressionAudit runs maporder + lockheld over the audit fixture and
// checks Audit in both directions: the used //ctcp:lint-ok waivers stay
// silent, the stale ones are reported at the waiver's own line (marked
// want:suppressaudit inside the waiver comment).
func TestSuppressionAudit(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDirAs(filepath.Join("testdata", "src", "suppressaudit"), "ctcp/internal/serve")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*Analyzer{MapOrder, LockHeld}
	for _, d := range Run([]*Package{pkg}, analyzers) {
		t.Errorf("fixture should lint clean before the audit, got: %s", d)
	}
	got := Audit([]*Package{pkg}, analyzers)
	want := parseWant(pkg)

	seen := map[wantKey]bool{}
	for _, d := range got {
		k := wantKey{filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule}
		if !want[k] {
			t.Errorf("unexpected audit diagnostic: %s", d)
			continue
		}
		seen[k] = true
	}
	var missing []string
	for k := range want { //ctcp:lint-ok maporder -- missing-set is sorted before reporting
		if !seen[k] {
			missing = append(missing, k.file+":"+itoa(k.line)+": "+k.rule)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("missing audit diagnostic: %s", m)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestModuleLintsClean is the acceptance gate for the annotations and
// suppressions in the tree itself: the full registry over every package in
// the module must produce zero diagnostics, so any new finding fails this
// test with a file:line diagnostic. The same cold run is also the suite's
// cost tripwire: it must finish inside lintBudget.
func TestModuleLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module (plus stdlib sources)")
	}
	start := time.Now()
	pkgs := loadModulePkgs(t)
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s", d.String())
	}
	// The audit gate rides along: no suppression in the tree may be stale.
	for _, d := range Audit(pkgs, All()) {
		t.Errorf("%s", d.String())
	}
	elapsed := time.Since(start)
	if raceEnabled {
		return // wall-clock time is meaningless under race instrumentation
	}
	if elapsed > lintBudget {
		t.Fatalf("full lint run took %v, over the %v budget; make the analyzers cheaper before raising it", elapsed, lintBudget)
	}
	t.Logf("full lint run: %v (budget %v)", elapsed, lintBudget)
}
