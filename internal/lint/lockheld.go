package lint

// lockheld: no blocking operation while a sync.Mutex/RWMutex is held.
//
// The analyzer tracks lock regions per CFG path with a may-analysis: a
// block's entry set is the union of its predecessors' exit sets, so "the
// mutex may still be held here" survives joins and partially-unlocking
// branches. Within a region it flags:
//
//   - file/network I/O: calls into os, net, net/http, os/exec, syscall
//     (os environment accessors exempt), and calls to module functions whose
//     transitive static call graph reaches one — snap.WriteFile*/ReadFile*
//     and serve's store reads are caught this way, with a witness chain;
//   - channel sends and receives, range over a channel, and selects without
//     a default clause (a select with a default, the lossy fan-out idiom, is
//     non-blocking by construction);
//   - time.Sleep and sync.WaitGroup.Wait. sync.Cond.Wait is exempt: it
//     releases the mutex while parked, which is the point of the idiom;
//   - taking another mutex (Lock/RLock), directly or through a module callee
//     that takes one. No lock may be taken while another is held, so there
//     is no lock order to get wrong, and reacquiring the held lock — a
//     self-deadlock — is the same finding.
//
// `defer mu.Unlock()` leaves the region open to function exit (correct: the
// lock really is held until return). Operations inside go statements run on
// another goroutine and are excluded; operations inside defer statements are
// excluded too (a granularity limit — deferred work runs at return, usually
// after the deferred unlock, but ordering among defers is not modeled).
//
// There is no function-level hatch: blocking work under a lock is waived
// only line by line, with //ctcp:lint-ok lockheld and a reason.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "blocking operation (I/O, channel op, sleep, another lock) while a sync mutex is held",
	Match: func(pkgPath string) bool {
		return pathIn(pkgPath, "internal/serve", "internal/experiment", "internal/snap")
	},
	RunModule: runLockHeld,
}

// lockOp is one mutex acquisition or release at a CFG node.
type lockOp struct {
	acquire bool
	key     string
	pos     token.Pos
}

// mutexMethod classifies a call as a sync.Mutex/RWMutex method and returns
// the receiver expression (the lock) and whether it acquires.
func mutexMethod(pkg *Package, call *ast.CallExpr) (recv ast.Expr, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	fn, isFn := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil, false, false
	}
	named := recvNamed(sig.Recv().Type())
	if named == nil {
		return nil, false, false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return nil, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return sel.X, true, true
	case "Unlock", "RUnlock":
		return sel.X, false, true
	}
	return nil, false, false
}

// nodeLockOps extracts the mutex operations of one CFG node in source order.
// Like blockScanner it skips function literals, go statements, and defers —
// so `defer mu.Unlock()` is a no-op and the region stays open to exit. A lock
// is named by its receiver expression's source form, which is stable within
// one function and all the intraprocedural region analysis needs.
func nodeLockOps(pkg *Package, n ast.Node) []lockOp {
	var scanRoot ast.Node = n
	switch n := n.(type) {
	case *ast.RangeStmt:
		scanRoot = n.X // header-only node
	case *ast.SelectStmt:
		return nil // header-only node; comm clauses are separate nodes
	}
	var ops []lockOp
	ast.Inspect(scanRoot, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if recv, acquire, ok := mutexMethod(pkg, m); ok {
				ops = append(ops, lockOp{acquire: acquire, key: types.ExprString(recv), pos: m.Pos()})
			}
		}
		return true
	})
	return ops
}

// heldSet maps lock keys to the position of their (earliest seen)
// acquisition.
type heldSet map[string]token.Pos

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h { // set copy; order-insensitive
		c[k] = v
	}
	return c
}

// mergeInto unions src into dst and reports whether dst grew.
func mergeInto(dst, src heldSet) bool {
	grew := false
	for k, v := range src { // set union; order-insensitive
		if _, ok := dst[k]; !ok {
			dst[k] = v
			grew = true
		}
	}
	return grew
}

// lockWalk runs the may-held fixpoint over a CFG and then calls visit once
// per node with the converged set of locks held immediately before it.
func lockWalk(g *CFG, ops func(n ast.Node) []lockOp, visit func(n ast.Node, held heldSet)) {
	in := make([]heldSet, len(g.Blocks))
	for i := range in {
		in[i] = heldSet{}
	}
	apply := func(h heldSet, n ast.Node) {
		for _, op := range ops(n) {
			if op.acquire {
				if _, ok := h[op.key]; !ok {
					h[op.key] = op.pos
				}
			} else {
				delete(h, op.key)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range g.Blocks {
			out := in[blk.Index].clone()
			for _, n := range blk.Nodes {
				apply(out, n)
			}
			for _, succ := range blk.Succs {
				if mergeInto(in[succ.Index], out) {
					changed = true
				}
			}
		}
	}
	for _, blk := range g.Blocks {
		h := in[blk.Index].clone()
		for _, n := range blk.Nodes {
			visit(n, h)
			apply(h, n)
		}
	}
}

// heldNames renders a held set for a diagnostic: sorted lock names with
// their acquisition sites.
func heldNames(pkg *Package, held heldSet) string {
	keys := make([]string, 0, len(held))
	for k := range held { // keys are collected and sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s (acquired at %s)", k, shortPos(pkg.Fset, held[k]))
	}
	return out
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func runLockHeld(mp *ModulePass) {
	cg := buildCallGraph(mp.Pkgs)
	call := cg.callCause(cg.blockingFuncs())

	for _, f := range cg.order {
		if mp.Analyzer.Match != nil && !mp.Analyzer.Match(f.pkg.Path) {
			continue
		}
		pkg, decl := f.pkg, f.decl
		bs := &blockScanner{pkg: pkg, comms: selectComms(decl.Body), call: call}
		ops := func(n ast.Node) []lockOp { return nodeLockOps(pkg, n) }
		lockWalk(BuildCFG(decl.Body), ops, func(n ast.Node, held heldSet) {
			if len(held) == 0 {
				return
			}
			if c := bs.scanHeader(n); c != nil {
				mp.Reportf(pkg, c.pos, "%s while %s is held; move the blocking work off the lock (reserve-then-fill / copy-then-release)",
					c.describe(), heldNames(pkg, held))
			}
		})
	}
}
