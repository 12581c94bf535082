package lint

// Lint-suite cost tracking: the whole point of a pre-merge analyzer suite is
// that it stays cheap enough to run on every push. BenchmarkLintModule
// measures one registry run over the loaded module; TestModuleLintsClean's
// cold run (including lockheld's call-graph fixpoint) must stay inside the
// generous wall-clock lintBudget instead of letting it creep.

import (
	"testing"
	"time"
)

// loadModulePkgs loads and type-checks the whole module once, fatally on
// error; shared by the benchmark and TestModuleLintsClean.
func loadModulePkgs(tb testing.TB) []*Package {
	tb.Helper()
	l, err := NewLoader("")
	if err != nil {
		tb.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		tb.Fatal(err)
	}
	return pkgs
}

// BenchmarkLintModule times the analysis proper — every registered analyzer
// plus the suppression audit — over a pre-loaded module, which is what the
// suite costs when the type-checked packages are already in hand (load and
// type-check time is measured once by the loader, not per analyzer change).
func BenchmarkLintModule(b *testing.B) {
	pkgs := loadModulePkgs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags := Run(pkgs, All())
		diags = append(diags, Audit(pkgs, All())...)
		if len(diags) != 0 {
			b.Fatalf("module not clean: %s", diags[0].String())
		}
	}
}

// lintBudget is the end-to-end ceiling (load + type-check + every analyzer +
// audit) for one cold run of the suite, checked by TestModuleLintsClean.
// Analyzer additions that outgrow it should be made cheaper (share the call
// graph, prune the fixpoint) rather than the budget raised quietly.
const lintBudget = 120 * time.Second
