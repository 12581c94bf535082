package lint

// A module-local call graph over every loaded package, plus the one
// transitive property lockheld needs from it, blockingFuncs: can calling this
// function block the caller (file or network I/O, channel operations,
// time.Sleep, sync.WaitGroup.Wait, taking a mutex), and if so, through which
// witness chain?
//
// Resolution is static: plain function calls and method calls that
// type-check to a concrete *types.Func. Calls through function values and
// through module-defined interfaces are not resolved and are treated as
// non-blocking — a documented soundness gap that matches the existing
// analyzers' static-call discipline (configvalidate, snapcomplete). Stdlib
// interface methods (e.g. net/http.ResponseWriter.Write) do resolve to a
// *types.Func and are classified by their package's blocking table.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// cgFunc is one module function declaration in the call graph.
type cgFunc struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

type callGraph struct {
	decls map[*types.Func]*cgFunc
	order []*cgFunc // deterministic: package path, then declaration order
}

// buildCallGraph indexes every function/method declaration in the packages.
func buildCallGraph(pkgs []*Package) *callGraph {
	cg := &callGraph{decls: map[*types.Func]*cgFunc{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &cgFunc{fn: fn, decl: fd, pkg: pkg}
				cg.decls[fn] = n
				cg.order = append(cg.order, n)
			}
		}
	}
	return cg
}

// resolveCallee statically resolves a call expression to the function object
// it invokes, or nil for dynamic calls (function values, closures) and
// non-function "calls" (conversions, builtins).
func resolveCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// blockCause is the witness for "this operation (or function) can block":
// the terminal reason plus, for transitive causes, the immediate callee the
// blocking behaviour was inherited from.
type blockCause struct {
	root string // terminal op, e.g. "os.OpenFile", "channel send", "time.Sleep"
	via  string // immediate module callee ("" when the cause is direct)
	pos  token.Pos
}

func (c *blockCause) describe() string {
	if c.via == "" {
		return c.root
	}
	return "call to " + c.via + " (reaches " + c.root + ")"
}

// blockingStdlibPkgs are the stdlib packages whose calls are assumed to
// perform file/network I/O or otherwise block.
var blockingStdlibPkgs = map[string]bool{
	"os":       true,
	"net":      true,
	"net/http": true,
	"os/exec":  true,
	"syscall":  true,
}

// osNonBlocking are package-level os functions that only touch the process
// environment, not the filesystem.
var osNonBlocking = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "Expand": true,
	"ExpandEnv": true, "Exit": true, "Getpid": true, "Getppid": true,
	"IsNotExist": true, "IsExist": true, "IsPermission": true,
	"IsTimeout": true, "IsPathSeparator": true,
}

// httpNonBlocking are net/http methods that only touch in-memory request
// state, keyed by "Recv.Name": header-map accessors and the routing/context
// getters. Everything else in net/http (ResponseWriter.Write, WriteHeader,
// Flusher.Flush, Client.Do, Request.FormValue — which can read the body —
// ...) stays classified as I/O.
var httpNonBlocking = map[string]bool{
	"Header.Get": true, "Header.Set": true, "Header.Add": true,
	"Header.Del": true, "Header.Values": true, "Header.Clone": true,
	"Request.PathValue": true, "Request.SetPathValue": true,
	"Request.Context": true, "Request.UserAgent": true, "Request.Referer": true,
}

// stdlibBlockCause classifies a resolved non-module callee.
func stdlibBlockCause(fn *types.Func, pos token.Pos) *blockCause {
	if fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	if path == "net/http" && isMethod {
		if recv := recvNamed(sig.Recv().Type()); recv != nil {
			if httpNonBlocking[recv.Obj().Name()+"."+fn.Name()] {
				return nil
			}
		}
	}
	switch path {
	case "time":
		if !isMethod && fn.Name() == "Sleep" {
			return &blockCause{root: "time.Sleep", pos: pos}
		}
		return nil
	case "sync":
		if !isMethod {
			return nil
		}
		recv := recvNamed(sig.Recv().Type())
		if recv == nil {
			return nil
		}
		// WaitGroup.Wait blocks, and so does taking a mutex, which is what
		// turns "no lock under a lock" into a lockheld finding; Cond.Wait
		// releases the mutex while parked, so the condition-variable idiom
		// (nextJob's cond loop) is exempt.
		switch name := recv.Obj().Name() + "." + fn.Name(); name {
		case "WaitGroup.Wait", "Mutex.Lock", "RWMutex.Lock", "RWMutex.RLock":
			return &blockCause{root: "sync." + name, pos: pos}
		}
		return nil
	}
	if blockingStdlibPkgs[path] {
		if path == "os" && !isMethod && osNonBlocking[fn.Name()] {
			return nil
		}
		return &blockCause{root: fn.FullName(), pos: pos}
	}
	return nil
}

// displayFunc renders a module function for diagnostics, without the noisy
// module prefix.
func displayFunc(fn *types.Func) string {
	return strings.ReplaceAll(fn.FullName(), "ctcp/", "")
}

// selectComms collects the comm statements of every select in the body, so
// scanners can attribute clause comms to the select header instead of
// double-reporting them as bare sends/receives.
func selectComms(body *ast.BlockStmt) map[ast.Node]bool {
	comms := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			if cc := clause.(*ast.CommClause); cc.Comm != nil {
				comms[cc.Comm] = true
			}
		}
		return true
	})
	return comms
}

// selectHasDefault reports whether a select statement has a default clause
// (making it non-blocking).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if clause.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// blockScanner finds the first blocking operation in a subtree. It never
// descends into nested function literals (defining a closure does not run
// it), go statements (the spawned goroutine blocks, not the caller), or
// defer statements (deferred work runs at return — a documented granularity
// limit shared with the lock-region analysis).
type blockScanner struct {
	pkg   *Package
	comms map[ast.Node]bool
	// call classifies a resolved call; installed by the caller so the
	// module-transitive behaviour stays theirs.
	call func(call *ast.CallExpr, fn *types.Func) *blockCause
}

// scan walks a full subtree (function body or plain statement).
func (bs *blockScanner) scan(root ast.Node) *blockCause {
	var found *blockCause
	ast.Inspect(root, func(n ast.Node) bool {
		if found != nil || n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				found = &blockCause{root: "select without a default clause", pos: n.Pos()}
				return false
			}
			return true
		case *ast.SendStmt:
			if bs.comms[n] {
				return false // the enclosing select header owns this comm
			}
			found = &blockCause{root: "channel send", pos: n.Pos()}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = &blockCause{root: "channel receive", pos: n.Pos()}
				return false
			}
		case *ast.RangeStmt:
			if t := bs.pkg.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = &blockCause{root: "range over channel", pos: n.Range}
					return false
				}
			}
			return true
		case *ast.AssignStmt, *ast.ExprStmt:
			if bs.comms[n] {
				return false
			}
		case *ast.CallExpr:
			if fn := resolveCallee(bs.pkg, n); fn != nil {
				if c := bs.call(n, fn); c != nil {
					found = c
					return false
				}
			}
		}
		return true
	})
	return found
}

// scanHeader scans a CFG node: header-only for range and select nodes (their
// bodies live in successor blocks), full subtree otherwise.
func (bs *blockScanner) scanHeader(n ast.Node) *blockCause {
	switch n := n.(type) {
	case *ast.RangeStmt:
		if t := bs.pkg.Info.TypeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return &blockCause{root: "range over channel", pos: n.Range}
			}
		}
		return bs.scan(n.X)
	case *ast.SelectStmt:
		if !selectHasDefault(n) {
			return &blockCause{root: "select without a default clause", pos: n.Pos()}
		}
		return nil
	default:
		return bs.scan(n)
	}
}

// callCause is the call classifier for a blockScanner: a call to a module
// function blocks when known says it does, and a stdlib call is classified by
// stdlibBlockCause.
func (cg *callGraph) callCause(known map[*types.Func]*blockCause) func(*ast.CallExpr, *types.Func) *blockCause {
	return func(call *ast.CallExpr, fn *types.Func) *blockCause {
		if _, isModule := cg.decls[fn]; isModule {
			if c := known[fn]; c != nil {
				return &blockCause{root: c.root, via: displayFunc(fn), pos: call.Pos()}
			}
			return nil
		}
		return stdlibBlockCause(fn, call.Pos())
	}
}

// blockingFuncs computes, for every module function, whether calling it can
// block, with a witness chain.
func (cg *callGraph) blockingFuncs() map[*types.Func]*blockCause {
	result := map[*types.Func]*blockCause{}
	call := cg.callCause(result)
	for changed := true; changed; {
		changed = false
		for _, f := range cg.order {
			if result[f.fn] != nil {
				continue
			}
			bs := &blockScanner{pkg: f.pkg, comms: selectComms(f.decl.Body), call: call}
			if c := bs.scan(f.decl.Body); c != nil {
				result[f.fn] = c
				changed = true
			}
		}
	}
	return result
}
