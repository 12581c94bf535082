package lint

// An intraprocedural control-flow graph over one function body, built at
// statement granularity. The flow-aware analyzer (lockheld) runs a
// may-analysis fixpoint over it: a basic block's entry state is the union of
// its predecessors' exit states, so "the lock may still be held here"
// survives joins, which is the conservative direction for the check.
//
// Granularity and structure:
//
//   - Plain statements (assignments, expression statements, sends, defers,
//     go statements, declarations) are nodes appended to the current block.
//   - Control headers contribute only their own evaluation to the block that
//     executes them: an if/for/switch condition is added as a bare ast.Expr
//     node, a range statement and a select statement are added as themselves
//     (the analyzers treat those two node kinds header-only and never
//     descend into their bodies, which live in successor blocks).
//   - break/continue honor labels; goto is not modeled — a goto conservatively
//     ends the block with an edge to the synthetic exit (no analyzer in this
//     module inspects code that uses goto).
//   - A select's comm clauses become successor blocks whose first node is the
//     comm statement itself; blockScanner attributes the blocking behaviour
//     of the comms to the select header, so clause-level sends/receives are
//     not double-counted.
//
// Unreachable code (statements after return/break) still gets blocks, but no
// entry edge ever reaches them, so a may-analysis keeps them at the empty
// state and never reports from them.

import "go/ast"

// Block is one basic block: a run of nodes with single-entry evaluation
// order and a set of successor blocks.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body. Exit is a synthetic
// empty block every return (and the fall-off-the-end path) flows into.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}, exit: &Block{Index: -1}}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.exit
	b.cur = b.g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.exit)
	}
	b.exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.exit)
	return b.g
}

// target is one entry of the break/continue resolution stacks.
type target struct {
	label string
	block *Block
}

type cfgBuilder struct {
	g    *CFG
	exit *Block
	cur  *Block // nil after a terminator (return/break/continue/goto)

	breaks    []target
	continues []target
	fall      *Block // fallthrough target inside a switch body
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block, reviving a dead (unreachable)
// block if a terminator just ended the previous one.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable: no entry edge
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// findTarget resolves a break/continue target: the innermost entry for an
// unlabeled branch, the matching entry for a labeled one.
func findTarget(stack []target, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].block == nil {
			continue
		}
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Cond)
		cond := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else, "")
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		after := b.newBlock()
		post := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after)
		}
		body := b.newBlock()
		b.edge(head, body)
		b.breaks = append(b.breaks, target{label, after})
		b.continues = append(b.continues, target{label, post})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, post)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post, "")
		}
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		head.Nodes = append(head.Nodes, s) // header-only node: analyzers scan s.X, never s.Body
		after := b.newBlock()
		b.edge(head, after)
		body := b.newBlock()
		b.edge(head, body)
		b.breaks = append(b.breaks, target{label, after})
		b.continues = append(b.continues, target{label, head})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, label, false)

	case *ast.SelectStmt:
		b.add(s) // header-only node: blockScanner classifies it by default-presence
		head := b.cur
		after := b.newBlock()
		b.breaks = append(b.breaks, target{label, after})
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.cur = blk
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.exit)
		b.cur = nil

	case *ast.BranchStmt:
		switch s.Tok.String() {
		case "break":
			if t := findTarget(b.breaks, labelName(s)); t != nil && b.cur != nil {
				b.edge(b.cur, t)
			}
		case "continue":
			if t := findTarget(b.continues, labelName(s)); t != nil && b.cur != nil {
				b.edge(b.cur, t)
			}
		case "fallthrough":
			if b.fall != nil && b.cur != nil {
				b.edge(b.cur, b.fall)
			}
		case "goto":
			if b.cur != nil {
				b.edge(b.cur, b.exit) // unmodeled; conservative function exit
			}
		}
		b.cur = nil

	default:
		// ExprStmt, AssignStmt, SendStmt, IncDecStmt, DeclStmt, DeferStmt,
		// GoStmt, EmptyStmt: plain nodes.
		b.add(s)
	}
}

// caseClauses builds the shared switch/type-switch body shape: every case
// branches from the header block; fallthrough (expression switches only)
// links a body to the next case's entry.
func (b *cfgBuilder) caseClauses(clauses []ast.Stmt, label string, allowFallthrough bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	b.breaks = append(b.breaks, target{label, after})
	b.continues = append(b.continues, target{label, nil}) // continue skips switches
	entries := make([]*Block, len(clauses))
	hasDefault := false
	for i, clause := range clauses {
		cc := clause.(*ast.CaseClause)
		entries[i] = b.newBlock()
		b.edge(head, entries[i])
		for _, e := range cc.List {
			entries[i].Nodes = append(entries[i].Nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
	}
	for i, clause := range clauses {
		cc := clause.(*ast.CaseClause)
		prevFall := b.fall
		b.fall = nil
		if allowFallthrough && i+1 < len(entries) {
			b.fall = entries[i+1]
		}
		b.cur = entries[i]
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		b.fall = prevFall
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = after
}

func labelName(s *ast.BranchStmt) string {
	if s.Label == nil {
		return ""
	}
	return s.Label.Name
}
