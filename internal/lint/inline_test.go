package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// inlineFunc is one function declaration marked //ctcp:inline.
type inlineFunc struct {
	dir  string // package directory, relative to the module root
	pos  string // "file:line" of the func keyword, relative to the module root
	name string // "(*T).M" or "F", as the compiler names it
}

// inlineDirectives parses every non-test Go file of the module rooted at
// root (skipping testdata and nested modules) and returns the functions
// marked //ctcp:inline, in file order.
func inlineDirectives(root string) ([]inlineFunc, error) {
	var out []inlineFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !funcAnnotated(fd, "ctcp:inline") {
				continue
			}
			out = append(out, inlineFunc{
				dir:  filepath.ToSlash(filepath.Dir(rel)),
				pos:  fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line),
				name: compilerName(fd),
			})
		}
		return nil
	})
	return out, err
}

// compilerName renders fd's name the way the compiler's -m output does.
func compilerName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := ""
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = "*", s.X
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := types.ExprString(typ)
	if star != "" {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// inlineDecision matches one inlining line of the compiler's -m=2 output:
// "file.go:LINE:COL: can inline NAME with cost N ..." or
// "file.go:LINE:COL: cannot inline NAME: REASON".
var inlineDecision = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (can|cannot) inline (.+?)(?: with cost \d+ as:|: (.*))`)

// inlineVerdict is what the compiler reported for one source position.
type inlineVerdict struct {
	refuse string // the first "cannot inline" report, "" if none
}

// parseInlineDecisions indexes -m=2 output by "file:line". A generic
// function is reported once per shape it is compiled for, so a position
// inlines only when no report at it says it cannot.
func parseInlineDecisions(out string) map[string]*inlineVerdict {
	got := map[string]*inlineVerdict{}
	for _, line := range strings.Split(out, "\n") {
		m := inlineDecision.FindStringSubmatch(strings.TrimPrefix(line, "./"))
		if m == nil {
			continue
		}
		key := m[1] + ":" + m[2]
		v := got[key]
		if v == nil {
			v = &inlineVerdict{}
			got[key] = v
		}
		if m[3] == "cannot" && v.refuse == "" {
			v.refuse = m[4] + ": " + m[5]
		}
	}
	return got
}

// TestParseInlineDecisions pins the output parser on the compiler's two
// line shapes, including a generic function reported per shape.
func TestParseInlineDecisions(t *testing.T) {
	out := strings.Join([]string{
		"# ctcp/internal/pipeline",
		"internal/pipeline/ring.go:120:6: can inline (*infStore).index with cost 34 as: method(*infStore) func(infID) uint32 { ... }",
		"internal/pipeline/pipeline.go:573:6: cannot inline (*Pipeline).handleControl: function too complex: cost 85 exceeds budget 80",
		"internal/pcmap/pcmap.go:70:6: can inline pcmap.(*Map[ctcp/internal/pipeline.pcStats]).Ensure with cost 63 as: method(...)",
		"internal/pcmap/pcmap.go:70:6: cannot inline pcmap.(*Map[go.shape.struct { lastProd [2]uint64 }]).Ensure: function too complex: cost 94 exceeds budget 80",
		"internal/pipeline/ring.go:121:2: x does not escape",
	}, "\n")
	got := parseInlineDecisions(out)
	if v := got["internal/pipeline/ring.go:120"]; v == nil || v.refuse != "" {
		t.Errorf("index: got %+v, want inlinable", v)
	}
	if v := got["internal/pipeline/pipeline.go:573"]; v == nil || !strings.Contains(v.refuse, "handleControl: function too complex: cost 85") {
		t.Errorf("handleControl: got %+v, want refused at cost 85", v)
	}
	if v := got["internal/pcmap/pcmap.go:70"]; v == nil || !strings.Contains(v.refuse, "cost 94") {
		t.Errorf("generic Ensure: got %+v, want refused for its shape at cost 94", v)
	}
	if v := got["internal/pipeline/ring.go:121"]; v != nil {
		t.Errorf("escape line parsed as an inlining decision: %+v", v)
	}
}

// TestInlineDirectivesHold is the check behind //ctcp:inline: every function
// carrying the directive must be inlinable under the compiler's default
// budget. It builds the annotated packages once with -gcflags=-m=2 and fails
// for each marked function the compiler reports it cannot inline, naming
// the function and the compiler's reason (for an over-budget body, its
// cost). A generic function counts as inlined only if every shape it is
// compiled for is; it must be instantiated in one of the annotated
// packages, or no decision is reported for it and the check fails too.
func TestInlineDirectivesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the annotated packages with -gcflags=-m=2")
	}
	l, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	root := l.Root()
	funcs, err := inlineDirectives(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 {
		t.Fatal("no //ctcp:inline directive in the module")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to ask the compiler: %v", err)
	}
	args := []string{"build", "-gcflags=-m=2"}
	seen := map[string]bool{}
	for _, f := range funcs {
		if !seen[f.dir] {
			seen[f.dir] = true
			args = append(args, "./"+f.dir)
		}
	}
	cmd := exec.Command(goCmd, args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	got := parseInlineDecisions(string(out))
	for _, f := range funcs {
		switch v := got[f.pos]; {
		case v == nil:
			t.Errorf("%s: %s is marked //ctcp:inline but the compiler reported no inlining decision for it", f.pos, f.name)
		case v.refuse != "":
			t.Errorf("%s: %s is marked //ctcp:inline but the compiler does not inline it: %s", f.pos, f.name, v.refuse)
		}
	}
	t.Logf("%d //ctcp:inline functions checked in %d packages", len(funcs), len(seen))
}
