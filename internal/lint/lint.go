// Package lint is a from-scratch static analysis framework for this module,
// built only on the standard library's go/parser, go/ast and go/types (the
// repo is stdlib-only, so x/tools is off limits). It exists to turn the
// simulator's load-bearing but otherwise unenforced properties — determinism
// of every rendered artifact, the absence of wall-clock and unseeded
// randomness in the timing model, and the service tier's lock-region
// contract — into machine-checked rules, the way the differential and
// golden-stats tests pin cycle-exactness. (Goroutine lifecycle is checked at
// run time, by internal/leakcheck, and the allocation-free cycle loop by
// internal/pipeline's allocation tests.)
//
// Analyzers come in two shapes. Expression-level analyzers implement Run and
// are invoked once per matched package. The flow-aware analyzer (lockheld)
// implements RunModule and is invoked once with every package in the load:
// it builds the module-local call graph and the per-function CFGs from
// cfg.go/callgraph.go and reasons across package boundaries (a callee in
// another package can block, or take a second lock).
//
// Conventions understood by the framework and its analyzers:
//
//   - //ctcp:lint-ok <rule>[,<rule>...] [reason] suppresses the named rules
//     on the comment's own line and on the line immediately below it.
//   - //ctcp:inline on a function declaration marks a per-instruction
//     helper that must stay inside the compiler's inlining budget. No
//     analyzer reads it: the compiler decides, so TestInlineDirectivesHold
//     builds the annotated packages with -gcflags=-m=2 and fails, naming the
//     function and the compiler's reported cost, for each one it does not
//     inline.
//
// Suppressions are audited: Audit reports any that no longer exempt a
// finding, so stale waivers cannot accumulate as the code under them
// changes. Audit findings ("suppressaudit") are themselves not suppressable.
//
// The cmd/ctcplint driver loads every package in the module, type-checks it,
// runs the registry returned by All, then runs the audit, and reports
// file:line diagnostics.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a concrete source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the driver's one-line plain-text form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// suppression is one //ctcp:lint-ok waiver for one rule. The same value is
// registered at the comment's own line and the line below, so a hit on
// either marks it used; the audit reports the ones that never fire.
type suppression struct {
	rule string
	pos  token.Position // the comment itself
	used bool
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path ("ctcp/internal/pipeline")
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// suppressions: filename -> line -> waivers covering that line.
	suppress map[string]map[int][]*suppression
}

// Analyzer is one named rule. Exactly one of Run (per-package) or RunModule
// (whole-module, for analyses that need the cross-package call graph) is set.
type Analyzer struct {
	Name string
	Doc  string
	// Match reports whether the analyzer applies to a package path; a nil
	// Match means every package. Module analyzers see every package via
	// ModulePass.Pkgs regardless and apply Match themselves to scope where
	// they report.
	Match     func(pkgPath string) bool
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass is the per-(analyzer, package) run context handed to Analyzer.Run.
type Pass struct {
	Pkg      *Package
	Analyzer *Analyzer

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a //ctcp:lint-ok suppression
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	report(p.Pkg, p.Analyzer.Name, pos, p.diags, format, args...)
}

// TypeOf is a nil-tolerant Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ModulePass is the run context handed to Analyzer.RunModule: every loaded
// package at once, so the analyzer can build cross-package structures.
type ModulePass struct {
	Pkgs     []*Package
	Analyzer *Analyzer

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos in pkg unless a //ctcp:lint-ok
// suppression covers it.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	report(pkg, mp.Analyzer.Name, pos, mp.diags, format, args...)
}

func report(pkg *Package, rule string, pos token.Pos, diags *[]Diagnostic, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	if pkg.suppressed(position, rule) {
		return
	}
	*diags = append(*diags, Diagnostic{
		Pos:     position,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// suppressOkPrefix introduces a suppression comment.
const suppressOkPrefix = "ctcp:lint-ok"

// buildSuppressions scans every comment in the package once and records, per
// file and line, which rules are suppressed there. A suppression covers the
// comment's own line (trailing-comment form) and the next line (the
// comment-above form); one shared record backs both lines so the audit sees
// a single used/unused bit per waiver.
func (pkg *Package) buildSuppressions() {
	pkg.suppress = make(map[string]map[int][]*suppression)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, suppressOkPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, suppressOkPrefix))
				if len(fields) == 0 {
					continue
				}
				rules := strings.Split(fields[0], ",")
				pos := pkg.Fset.Position(c.Pos())
				m := pkg.suppress[pos.Filename]
				if m == nil {
					m = make(map[int][]*suppression)
					pkg.suppress[pos.Filename] = m
				}
				for _, r := range rules {
					s := &suppression{rule: r, pos: pos}
					m[pos.Line] = append(m[pos.Line], s)
					m[pos.Line+1] = append(m[pos.Line+1], s)
				}
			}
		}
	}
}

func (pkg *Package) suppressed(pos token.Position, rule string) bool {
	for _, s := range pkg.suppress[pos.Filename][pos.Line] {
		if s.rule == rule {
			s.used = true
			return true
		}
	}
	return false
}

// All returns the full analyzer registry in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		NonDet,
		FloatEq,
		ConfigValidate,
		SnapComplete,
		WriteCheck,
		LockHeld,
	}
}

// Run executes the given analyzers over the given packages and returns the
// surviving (unsuppressed) diagnostics sorted by position. Per-package
// analyzers run on each matched package; module analyzers run once with the
// whole load.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.suppress == nil {
			pkg.buildSuppressions()
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			a.Run(&Pass{Pkg: pkg, Analyzer: a, diags: &diags})
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a.RunModule(&ModulePass{Pkgs: pkgs, Analyzer: a, diags: &diags})
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders diagnostics by file, line, column, then rule — the
// stable reporting order used by the driver and the fixture harness.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// AuditRule is the rule name under which stale waivers are reported.
const AuditRule = "suppressaudit"

// Audit reports stale waivers after a Run over the same packages: every
// //ctcp:lint-ok whose rule was among the analyzers that ran but which
// suppressed nothing. Audit diagnostics are deliberately not suppressable —
// a waiver cannot waive its own staleness.
func Audit(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		seen := make(map[*suppression]bool)
		for _, byLine := range pkg.suppress { // map order irrelevant: diagnostics are sorted before return
			for _, ss := range byLine {
				for _, s := range ss {
					if seen[s] || s.used || !ran[s.rule] {
						continue
					}
					seen[s] = true
					diags = append(diags, Diagnostic{
						Pos:     s.pos,
						Rule:    AuditRule,
						Message: fmt.Sprintf("stale suppression: //ctcp:lint-ok %s matches no finding; remove it", s.rule),
					})
				}
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// pathIn reports whether pkgPath denotes one of the named module-relative
// packages (e.g. "internal/pipeline"), regardless of the module prefix.
func pathIn(pkgPath string, names ...string) bool {
	for _, n := range names {
		if pkgPath == n || strings.HasSuffix(pkgPath, "/"+n) {
			return true
		}
	}
	return false
}

// funcAnnotated reports whether a function declaration's doc comment carries
// the given //ctcp:<marker> line.
func funcAnnotated(d *ast.FuncDecl, marker string) bool {
	if d.Doc == nil {
		return false
	}
	for _, c := range d.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if f := strings.Fields(text); len(f) > 0 && f[0] == marker {
			return true
		}
	}
	return false
}
