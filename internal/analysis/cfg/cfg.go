// Package cfg builds intraprocedural control-flow graphs from Go syntax and
// provides the one client the dsivet analyzers need: a generic forward
// dataflow fixpoint over per-block facts.
//
// The package is deliberately small and dependency-free (no module proxy,
// so no x/tools). It models structured Go control flow —
// if/for/range/switch/type-switch/select, labeled break/continue/goto,
// fallthrough — at statement granularity: each basic block holds a sequence
// of *leaf* statements (assignments, expression statements, declarations);
// compound statements are decomposed into blocks and edges, with the
// controlling condition or switch recorded on the branching block so
// dataflow clients can refine facts along True/False/Case edges.
//
// Calls to panic or to functions annotated //dsi:coldpath (panic-or-record
// error paths) are treated as terminal: the block dead-ends instead of
// flowing to the function exit. That is what lets clients prove properties
// like "all paths through this (state, kind) pair hit an assertion" (the
// protomodel analyzer) or "the fallthrough path of `if sk == nil { return }`
// has a non-nil sink" (the obssink analyzer).
package cfg

import (
	"go/ast"
)

// EdgeKind classifies an outgoing edge of a block.
type EdgeKind uint8

const (
	// EdgeNext is an unconditional successor edge.
	EdgeNext EdgeKind = iota
	// EdgeTrue is the taken branch of the block's Cond (or loop entry for a
	// range statement).
	EdgeTrue
	// EdgeFalse is the not-taken branch of the block's Cond (or loop exit
	// for a range statement).
	EdgeFalse
	// EdgeCase enters one case/comm clause of the block's Stmt (a switch,
	// type switch, or select); Edge.Case holds the clause.
	EdgeCase
	// EdgeDefault leaves a switch with no matching case: either into its
	// default clause (Edge.Case is the default clause) or past the switch
	// entirely (Edge.Case is nil).
	EdgeDefault
)

var edgeKindNames = [...]string{"next", "true", "false", "case", "default"}

func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return "EdgeKind(?)"
}

// Edge is one control-flow edge out of a block.
type Edge struct {
	To   *Block
	Kind EdgeKind
	// Case is the case/comm clause this edge enters (EdgeCase, and
	// EdgeDefault when a default clause exists).
	Case ast.Node
}

// Block is a basic block: a run of leaf statements with a single entry and a
// branching exit described by Edges.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes are the leaf statements executed in order. Compound statements
	// never appear here; their conditions live on Cond/Stmt of the block
	// that branches. A range statement appears as a leaf of its own head
	// block (it assigns the iteration variables).
	Nodes []ast.Node
	// Cond is the boolean condition controlling EdgeTrue/EdgeFalse edges
	// (if/for conditions), or the switch tag expression for EdgeCase edges.
	// Nil for unconditional blocks, condition-less loops, expression-less
	// switches, type switches, and selects.
	Cond ast.Expr
	// Stmt is the compound statement this block branches for (*ast.IfStmt,
	// *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.ForStmt,
	// *ast.RangeStmt), letting clients distinguish e.g. an expression-less
	// switch from a type switch. Nil for plain blocks.
	Stmt ast.Stmt
	// Edges are the outgoing control-flow edges in source order.
	Edges []Edge
	// Preds are the blocks with an edge into this one.
	Preds []*Block
	// Live reports whether the block is reachable from Entry. Code after
	// return/panic produces dead blocks; dominators and dataflow skip them.
	Live bool
}

// Graph is one function body's control-flow graph.
type Graph struct {
	// Entry is the first block (it may carry leading statements).
	Entry *Block
	// Exit is the synthetic exit block every return flows to. Terminal calls
	// (panic, //dsi:coldpath) do NOT flow here.
	Exit *Block
	// Blocks lists every block; Entry is Blocks[0]. Exit's position depends
	// on when the first return materialized it.
	Blocks []*Block

	rpo    []int // reverse postorder of live blocks
	rpoPos []int // block index -> position in rpo, built lazily
}

// Options configures graph construction.
type Options struct {
	// IsTerminal reports whether a call expression never returns control to
	// the caller (panic or a //dsi:coldpath panic-or-record helper). A
	// statement consisting of such a call dead-ends its block.
	IsTerminal func(*ast.CallExpr) bool
}

// New builds the control-flow graph of body.
func New(body *ast.BlockStmt, opt Options) *Graph {
	b := &builder{
		g:     &Graph{},
		opt:   opt,
		gotos: make(map[string]*Block),
		pends: make(map[string][]*Block),
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = &Block{}
	b.cur = b.g.Entry
	b.stmtList(body.List)
	b.jumpDeferred(b.g.Exit) // falling off the end returns
	b.materialize(b.g.Exit)
	b.g.computeLiveness()
	return b.g
}

type loopFrame struct {
	label         string
	breakTo       *Block
	continueTo    *Block
	isSwitchOrSel bool // break applies, continue does not
}

type builder struct {
	g   *Graph
	opt Options
	cur *Block // nil when the current location is unreachable

	loops        []loopFrame
	pendingLabel string
	gotos        map[string]*Block   // label -> labeled block
	pends        map[string][]*Block // forward gotos awaiting their label
	inGraph      map[*Block]bool
	// fallFrom holds blocks ending in fallthrough, to be wired to the next
	// case clause's body block.
	fallFrom []*Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	if b.inGraph == nil {
		b.inGraph = make(map[*Block]bool)
	}
	b.inGraph[blk] = true
	return blk
}

// materialize adds a detached join block to the graph on first use.
func (b *builder) materialize(j *Block) *Block {
	if !b.inGraph[j] {
		j.Index = len(b.g.Blocks)
		b.g.Blocks = append(b.g.Blocks, j)
		b.inGraph[j] = true
	}
	return j
}

// ensure makes sure there is a current block to emit into, creating a dead
// (pred-less) block for statically unreachable code.
func (b *builder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

// emit records a leaf statement in the current block.
func (b *builder) emit(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.ensure()
	blk.Nodes = append(blk.Nodes, n)
	if b.terminalStmt(n) {
		b.cur = nil // panic/coldpath: control never continues
	}
}

// terminalStmt reports whether the leaf statement is a terminal call.
func (b *builder) terminalStmt(n ast.Node) bool {
	if b.opt.IsTerminal == nil {
		return false
	}
	if st, ok := n.(*ast.ExprStmt); ok {
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			return b.opt.IsTerminal(call)
		}
	}
	return false
}

func (b *builder) edge(from, to *Block, kind EdgeKind, clause ast.Node) {
	from.Edges = append(from.Edges, Edge{To: to, Kind: kind, Case: clause})
	to.Preds = append(to.Preds, from)
}

// jumpDeferred ends the current block (if live) with an edge to target,
// materializing target on demand.
func (b *builder) jumpDeferred(target *Block) {
	if b.cur == nil {
		return
	}
	b.edge(b.cur, b.materialize(target), EdgeNext, nil)
	b.cur = nil
}

// jumpTo links the current block (if live) to an in-graph block and makes it
// current.
func (b *builder) jumpTo(target *Block) {
	if b.cur != nil {
		b.edge(b.cur, target, EdgeNext, nil)
	}
	b.cur = target
}

// openJoin makes join the current block if anything flows into it.
func (b *builder) openJoin(join *Block) {
	if len(join.Preds) == 0 {
		b.cur = nil
		return
	}
	b.cur = b.materialize(join)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, st := range list {
		b.stmt(st)
	}
}

func (b *builder) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)

	case *ast.IfStmt:
		b.emit(st.Init)
		cond := b.ensure()
		cond.Cond = st.Cond
		cond.Stmt = st
		join := &Block{}
		then := b.newBlock()
		b.edge(cond, then, EdgeTrue, nil)
		var els *Block
		if st.Else != nil {
			els = b.newBlock()
			b.edge(cond, els, EdgeFalse, nil)
		} else {
			b.edge(cond, b.materialize(join), EdgeFalse, nil)
		}
		b.cur = then
		b.stmt(st.Body)
		b.jumpDeferred(join)
		if els != nil {
			b.cur = els
			b.stmt(st.Else)
			b.jumpDeferred(join)
		}
		b.openJoin(join)

	case *ast.ForStmt:
		label := b.takeLabel()
		b.emit(st.Init)
		head := b.newBlock()
		b.jumpTo(head)
		head.Stmt = st
		join := &Block{}
		body := b.newBlock()
		post := head
		if st.Post != nil {
			post = &Block{}
		}
		if st.Cond != nil {
			head.Cond = st.Cond
			b.edge(head, body, EdgeTrue, nil)
			b.edge(head, b.materialize(join), EdgeFalse, nil)
		} else {
			b.edge(head, body, EdgeNext, nil)
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTo: join, continueTo: post})
		b.cur = body
		b.stmt(st.Body)
		if st.Post != nil {
			b.jumpDeferred(post)
			b.openJoin(post)
			b.emit(st.Post)
			b.jumpTo(head)
			b.cur = nil
		} else {
			b.jumpTo(head)
			b.cur = nil
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.openJoin(join)

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.jumpTo(head)
		head.Stmt = st
		head.Nodes = append(head.Nodes, st)
		join := &Block{}
		body := b.newBlock()
		b.edge(head, body, EdgeTrue, nil)
		b.edge(head, b.materialize(join), EdgeFalse, nil)
		b.loops = append(b.loops, loopFrame{label: label, breakTo: join, continueTo: head})
		b.cur = body
		b.stmt(st.Body)
		b.jumpTo(head)
		b.cur = nil
		b.loops = b.loops[:len(b.loops)-1]
		b.openJoin(join)

	case *ast.SwitchStmt:
		b.emit(st.Init)
		tag := b.ensure()
		tag.Cond = st.Tag
		tag.Stmt = st
		b.caseClauses(tag, st.Body.List)

	case *ast.TypeSwitchStmt:
		b.emit(st.Init)
		tag := b.ensure()
		tag.Stmt = st
		if st.Assign != nil {
			tag.Nodes = append(tag.Nodes, st.Assign)
		}
		b.caseClauses(tag, st.Body.List)

	case *ast.SelectStmt:
		sel := b.ensure()
		sel.Stmt = st
		b.caseClauses(sel, st.Body.List)

	case *ast.LabeledStmt:
		lbl := b.newBlock()
		b.jumpTo(lbl)
		b.gotos[st.Label.Name] = lbl
		for _, from := range b.pends[st.Label.Name] {
			b.edge(from, lbl, EdgeNext, nil)
		}
		delete(b.pends, st.Label.Name)
		b.pendingLabel = st.Label.Name
		b.stmt(st.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.emit(st)
		b.jumpDeferred(b.g.Exit)

	case *ast.BranchStmt:
		b.branch(st)

	case *ast.EmptyStmt:
		// nothing

	default:
		// Leaf statements (assign, expr, decl, defer, go, send, incdec) and
		// any future statement kinds flow through as block contents.
		b.emit(st)
	}
}

// takeLabel consumes the label pending from an enclosing LabeledStmt.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// caseClauses builds the clause blocks of a switch/type-switch/select whose
// dispatch block is tag.
func (b *builder) caseClauses(tag *Block, clauses []ast.Stmt) {
	label := b.takeLabel()
	join := &Block{}
	b.cur = nil
	b.loops = append(b.loops, loopFrame{label: label, breakTo: join, isSwitchOrSel: true})

	type built struct {
		body []ast.Stmt
		blk  *Block
	}
	var list []built
	hasDefault := false
	for _, cs := range clauses {
		switch cs := cs.(type) {
		case *ast.CaseClause:
			blk := b.newBlock()
			kind := EdgeCase
			if cs.List == nil {
				kind = EdgeDefault
				hasDefault = true
			}
			b.edge(tag, blk, kind, cs)
			list = append(list, built{body: cs.Body, blk: blk})
		case *ast.CommClause:
			blk := b.newBlock()
			kind := EdgeCase
			if cs.Comm == nil {
				kind = EdgeDefault
				hasDefault = true
			}
			b.edge(tag, blk, kind, cs)
			b.cur = blk
			b.emit(cs.Comm)
			blk = b.ensure() // emit of a terminal comm is impossible; keep current
			list = append(list, built{body: cs.Body, blk: blk})
			b.cur = nil
		}
	}
	if !hasDefault {
		b.edge(tag, b.materialize(join), EdgeDefault, nil)
	}
	for _, c := range list {
		b.cur = c.blk
		for _, from := range b.fallFrom {
			b.edge(from, c.blk, EdgeNext, nil)
		}
		b.fallFrom = nil
		b.stmtList(c.body)
		b.jumpDeferred(join)
	}
	b.fallFrom = nil
	b.loops = b.loops[:len(b.loops)-1]
	b.openJoin(join)
}

func (b *builder) branch(st *ast.BranchStmt) {
	switch st.Tok.String() {
	case "break":
		for i := len(b.loops) - 1; i >= 0; i-- {
			fr := b.loops[i]
			if st.Label == nil || fr.label == st.Label.Name {
				b.jumpDeferred(fr.breakTo)
				return
			}
		}
		b.cur = nil
	case "continue":
		for i := len(b.loops) - 1; i >= 0; i-- {
			fr := b.loops[i]
			if fr.isSwitchOrSel {
				continue
			}
			if st.Label == nil || fr.label == st.Label.Name {
				b.jumpDeferred(fr.continueTo)
				return
			}
		}
		b.cur = nil
	case "goto":
		if st.Label == nil || b.cur == nil {
			b.cur = nil
			return
		}
		if target, ok := b.gotos[st.Label.Name]; ok {
			b.edge(b.cur, target, EdgeNext, nil)
			b.cur = nil
			return
		}
		b.pends[st.Label.Name] = append(b.pends[st.Label.Name], b.cur)
		b.cur = nil
	case "fallthrough":
		if b.cur != nil {
			b.fallFrom = append(b.fallFrom, b.cur)
			b.cur = nil
		}
	}
}

// computeLiveness marks blocks reachable from Entry and records a reverse
// postorder over them.
func (g *Graph) computeLiveness() {
	state := make([]uint8, len(g.Blocks))
	order := make([]int, 0, len(g.Blocks))
	var dfs func(*Block)
	dfs = func(b *Block) {
		if state[b.Index] != 0 {
			return
		}
		state[b.Index] = 1
		b.Live = true
		for _, e := range b.Edges {
			dfs(e.To)
		}
		order = append(order, b.Index)
	}
	dfs(g.Entry)
	g.rpo = make([]int, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		g.rpo = append(g.rpo, order[i])
	}
}
