package protomodel

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"strings"

	"dsisim/internal/analysis/cfg"
)

// This file is the symbolic CPS walker: it explores every feasible path
// through a dispatch root over the cfg package's graphs, refining the
// subject's coherence-state mask along branches and accumulating effects
// (state writes, sends, counters, emissions) per path. Calls to same-package
// functions are inlined (continuation-passing, so a callee's internal
// branching forks the caller's path); calls into the cache array, the
// directory, the DSI policy, and the obs sink go through small semantic
// tables; everything else is opaque and conservatively splits.

const (
	maxDepth = 14
	maxSteps = 600000
)

type cont func(*pstate, []symVal)

// frame is one inlined call's walking context.
type frame struct {
	g     *cfg.Graph
	vis   []bool
	vp    map[*cfg.Block]bool
	depth int
	stack []*ast.FuncDecl
	kRet  cont
}

type walker struct {
	x         *extractor
	space     *space
	trigKinds uint32
	outcomes  []outcome
	steps     int
}

func (w *walker) fail(st *pstate, pos token.Pos) {
	w.outcomes = append(w.outcomes, outcome{
		final: st.cur, wrote: st.wrote, sends: st.sends,
		counters: st.counters, emits: st.emits,
		failed: true, failPos: pos,
	})
}

// callFunc inlines decl: binds args to parameters and walks its graph; kRet
// resumes the caller with the callee's return values.
func (w *walker) callFunc(decl *ast.FuncDecl, st *pstate, args []symVal, depth int, stack []*ast.FuncDecl, k cont) {
	g := w.x.graphFor(decl.Body, decl.Pos())
	i := 0
	for _, field := range decl.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			i++
			continue
		}
		for _, name := range names {
			if name.Name != "_" && i < len(args) {
				if obj := w.x.src.info.Defs[name]; obj != nil {
					st.binds[keyForObj(obj)] = args[i]
				}
			}
			i++
		}
	}
	fr := &frame{g: g, vis: w.x.vis[decl.Body], vp: make(map[*cfg.Block]bool),
		depth: depth, stack: append(stack, decl), kRet: k}
	w.walkBlock(fr, g.Entry, st)
}

// callLit walks a function-literal body once with unknown parameters: the
// conservative "may execute" reading of closures handed to opaque callees
// (NodeSet.ForEach and friends).
func (w *walker) callLit(lit *ast.FuncLit, st *pstate, depth int, stack []*ast.FuncDecl, k func(*pstate)) {
	g := w.x.graphFor(lit.Body, lit.Pos())
	fr := &frame{g: g, vis: w.x.vis[lit.Body], vp: make(map[*cfg.Block]bool),
		depth: depth, stack: stack, kRet: func(st2 *pstate, _ []symVal) { k(st2) }}
	w.walkBlock(fr, g.Entry, st)
}

func (w *walker) walkBlock(fr *frame, blk *cfg.Block, st *pstate) {
	w.steps++
	if w.steps > maxSteps {
		w.x.budgetHit = true
		return
	}
	fr.vp[blk] = true
	fr.vis[blk.Index] = true
	w.walkNodes(fr, blk, 0, st)
	delete(fr.vp, blk)
}

func (w *walker) walkNodes(fr *frame, blk *cfg.Block, i int, st *pstate) {
	if i >= len(blk.Nodes) {
		w.walkBranch(fr, blk, st)
		return
	}
	w.execStmt(fr, blk.Nodes[i], st, func(st2 *pstate) {
		w.walkNodes(fr, blk, i+1, st2)
	})
}

// walkEdge follows one control-flow edge. A back edge (target still on the
// current path) means the loop body has run once: the path continues from the
// loop head's exits instead of re-entering — one-iteration unrolling that
// keeps the body's effects on a completing path.
func (w *walker) walkEdge(fr *frame, to *cfg.Block, st *pstate) {
	if fr.vp[to] {
		w.walkLoopExit(fr, to, st)
		return
	}
	w.walkBlock(fr, to, st)
}

// walkLoopExit resumes a path that looped back to head: every successor of
// head not already on the path is a way out. The head's own nodes (the loop
// header) are deliberately not re-executed. With no way out (for {}), the
// abstract path ends here.
func (w *walker) walkLoopExit(fr *frame, head *cfg.Block, st *pstate) {
	var outs []*cfg.Block
	for _, e := range head.Edges {
		if !fr.vp[e.To] {
			outs = append(outs, e.To)
		}
	}
	for i, to := range outs {
		s2 := st
		if i < len(outs)-1 {
			s2 = st.clone()
		}
		w.walkBlock(fr, to, s2)
	}
}

func (w *walker) walkBranch(fr *frame, blk *cfg.Block, st *pstate) {
	if len(blk.Edges) == 0 {
		if blk == fr.g.Exit {
			fr.kRet(st, nil)
		}
		return
	}
	switch s := blk.Stmt.(type) {
	case *ast.IfStmt, *ast.ForStmt:
		if blk.Cond != nil {
			w.branchCond(fr, st, blk.Cond, func(st2 *pstate, truth bool) {
				want := cfg.EdgeTrue
				if !truth {
					want = cfg.EdgeFalse
				}
				for _, e := range blk.Edges {
					if e.Kind == want {
						w.walkEdge(fr, e.To, st2)
					}
				}
			})
			return
		}
		w.walkAllEdges(fr, blk, st)
	case *ast.SwitchStmt:
		if blk.Cond != nil {
			w.walkTaggedSwitch(fr, blk, st)
		} else {
			w.walkCondSwitch(fr, blk, st)
		}
	default:
		_ = s
		w.walkAllEdges(fr, blk, st)
	}
}

func (w *walker) walkAllEdges(fr *frame, blk *cfg.Block, st *pstate) {
	n := len(blk.Edges)
	for i, e := range blk.Edges {
		s2 := st
		if i < n-1 {
			s2 = st.clone()
		}
		w.walkEdge(fr, e.To, s2)
	}
}

// walkTaggedSwitch dispatches `switch <enum expr>`: clauses with known
// constant sets subtract from the remaining tag mask, so each arm runs with a
// refined view and the default arm only with the leftovers.
func (w *walker) walkTaggedSwitch(fr *frame, blk *cfg.Block, st *pstate) {
	side, ok := w.maskSideOf(st, blk.Cond)
	if !ok {
		w.walkAllEdges(fr, blk, st)
		return
	}
	rem := side.mask
	var defaultEdge *cfg.Edge
	for i := range blk.Edges {
		e := &blk.Edges[i]
		if e.Kind == cfg.EdgeDefault {
			defaultEdge = e
			continue
		}
		if e.Kind != cfg.EdgeCase {
			st2 := st.clone()
			w.walkEdge(fr, e.To, st2)
			continue
		}
		clause, _ := e.Case.(*ast.CaseClause)
		cmask, precise := w.clauseMask(st, clause, side.dom)
		take := rem & cmask
		if !precise {
			take = rem
		}
		if take != 0 {
			st2 := st.clone()
			w.setSide(st2, side, take)
			w.walkEdge(fr, e.To, st2)
		}
		if precise {
			rem &^= cmask
		}
	}
	if defaultEdge != nil && rem != 0 {
		w.setSide(st, side, rem)
		w.walkEdge(fr, defaultEdge.To, st)
	}
}

// clauseMask unions a case clause's constant values in dom; precise=false
// when any expression is not a known constant of the domain.
func (w *walker) clauseMask(st *pstate, clause *ast.CaseClause, dom *types.TypeName) (uint32, bool) {
	if clause == nil {
		return 0, false
	}
	var m uint32
	for _, e := range clause.List {
		v := w.evalExpr(st, e)
		if v.k != kEnum || v.dom != dom {
			return 0, false
		}
		m |= v.mask
	}
	return m, true
}

// walkCondSwitch handles expression-less switches: each clause's expressions
// are boolean guards tried in order.
func (w *walker) walkCondSwitch(fr *frame, blk *cfg.Block, st *pstate) {
	var caseEdges []*cfg.Edge
	var defaultEdge *cfg.Edge
	for i := range blk.Edges {
		e := &blk.Edges[i]
		switch e.Kind {
		case cfg.EdgeCase:
			caseEdges = append(caseEdges, e)
		case cfg.EdgeDefault:
			defaultEdge = e
		default:
			panic("protomodel: non-case edge out of a switch dispatch block")
		}
	}
	var clause func(i int, st *pstate)
	clause = func(i int, st *pstate) {
		if i >= len(caseEdges) {
			if defaultEdge != nil {
				w.walkEdge(fr, defaultEdge.To, st)
			}
			return
		}
		cc, _ := caseEdges[i].Case.(*ast.CaseClause)
		if cc == nil || len(cc.List) == 0 {
			st2 := st.clone()
			w.walkEdge(fr, caseEdges[i].To, st2)
			clause(i+1, st)
			return
		}
		var overExprs func(j int, st *pstate)
		overExprs = func(j int, st *pstate) {
			if j >= len(cc.List) {
				clause(i+1, st)
				return
			}
			w.branchCond(fr, st, cc.List[j], func(st2 *pstate, truth bool) {
				if truth {
					w.walkEdge(fr, caseEdges[i].To, st2)
				} else {
					overExprs(j+1, st2)
				}
			})
		}
		overExprs(0, st)
	}
	clause(0, st)
}

// branchCond evaluates a boolean condition: same-package calls inside it are
// hoisted and executed first (binding their results), then both truth values
// that remain feasible are explored.
func (w *walker) branchCond(fr *frame, st *pstate, e ast.Expr, k func(*pstate, bool)) {
	w.hoistCalls(fr, st, e, func(st2 *pstate) {
		stT := st2.clone()
		if w.assume(stT, e, true) {
			k(stT, true)
		}
		if w.assume(st2, e, false) {
			k(st2, false)
		}
	})
}

// hoistCalls executes the same-package calls syntactically inside cond before
// the condition is assumed, so their effects and result bindings are visible.
// Short-circuit skipping is deliberately ignored: effects become "may" lists.
func (w *walker) hoistCalls(fr *frame, st *pstate, cond ast.Expr, k func(*pstate)) {
	var calls []*ast.CallExpr
	ast.Inspect(cond, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			if decl := w.calleeDecl(c); decl != nil {
				calls = append(calls, c)
			}
		}
		return true
	})
	var run func(i int, st *pstate)
	run = func(i int, st *pstate) {
		if i >= len(calls) {
			k(st)
			return
		}
		c := calls[i]
		w.execCall(fr, st, c, func(st2 *pstate, res []symVal) {
			if len(res) == 1 && res[0].k == kBool {
				st2.binds[callKey(c)] = res[0]
			}
			run(i+1, st2)
		})
	}
	run(0, st)
}

func callKey(c *ast.CallExpr) string { return "call@" + strconv.Itoa(int(c.Pos())) }

// calleeDecl resolves a call to a same-package function declaration. A
// method of an instantiated generic type and an explicitly instantiated
// generic function resolve to their generic declaration.
func (w *walker) calleeDecl(call *ast.CallExpr) *ast.FuncDecl {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = w.x.src.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = w.x.src.info.Uses[fun.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	return w.x.funcs[obj]
}

// --- statement execution ----------------------------------------------------

func (w *walker) execStmt(fr *frame, n ast.Node, st *pstate, k func(*pstate)) {
	switch s := n.(type) {
	case *ast.ReturnStmt:
		if len(s.Results) == 1 {
			if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
				w.execCall(fr, st, call, func(st2 *pstate, res []symVal) {
					fr.kRet(st2, res)
				})
				return
			}
		}
		vals := make([]symVal, len(s.Results))
		for i, r := range s.Results {
			vals[i] = w.evalExpr(st, r)
		}
		fr.kRet(st, vals)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			w.execCall(fr, st, call, func(st2 *pstate, _ []symVal) { k(st2) })
			return
		}
		k(st)
	case *ast.AssignStmt:
		w.execAssign(fr, s, st, k)
	case *ast.IncDecStmt:
		if name := counterName(s.X); name != "" {
			st.counter(name)
		} else {
			w.killLValue(st, s.X)
		}
		k(st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v := unknownVal
					if i < len(vs.Values) {
						v = w.evalExpr(st, vs.Values[i])
					}
					if name.Name != "_" {
						if obj := w.x.src.info.Defs[name]; obj != nil {
							st.binds[keyForObj(obj)] = v
						}
					}
				}
			}
		}
		k(st)
	case *ast.RangeStmt:
		if id, ok := s.Key.(*ast.Ident); ok {
			w.bindIdent(st, id, unknownVal)
		}
		if id, ok := s.Value.(*ast.Ident); ok {
			w.bindIdent(st, id, unknownVal)
		}
		k(st)
	default:
		k(st)
	}
}

func (w *walker) execAssign(fr *frame, s *ast.AssignStmt, st *pstate, k func(*pstate)) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// Compound assignment: += on a stats field is a counter bump;
		// anything else just invalidates what we knew about the target.
		if name := counterName(s.Lhs[0]); name != "" {
			st.counter(name)
		} else {
			w.killLValue(st, s.Lhs[0])
		}
		k(st)
		return
	}
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			w.execCall(fr, st, call, func(st2 *pstate, res []symVal) {
				for i, lhs := range s.Lhs {
					w.bindLValue(st2, lhs, at(res, i))
				}
				k(st2)
			})
			return
		}
		if len(s.Lhs) == 1 {
			w.bindLValue(st, s.Lhs[0], w.evalExpr(st, s.Rhs[0]))
		} else {
			// Two-value forms without a call (map index, type assertion).
			for _, lhs := range s.Lhs {
				w.bindLValue(st, lhs, unknownVal)
			}
		}
		k(st)
		return
	}
	vals := make([]symVal, len(s.Rhs))
	for i, r := range s.Rhs {
		vals[i] = w.evalExpr(st, r)
	}
	for i, lhs := range s.Lhs {
		w.bindLValue(st, lhs, at(vals, i))
	}
	k(st)
}

func at(vals []symVal, i int) symVal {
	if i < len(vals) {
		return vals[i]
	}
	return unknownVal
}

// counterName recognizes `<x>.stats.<Field>` lvalues.
func counterName(e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	base, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || base.Sel.Name != "stats" {
		return ""
	}
	return sel.Sel.Name
}

// --- lvalues ----------------------------------------------------------------

func (w *walker) bindIdent(st *pstate, id *ast.Ident, v symVal) {
	if id.Name == "_" {
		return
	}
	key := w.keyOf(id)
	if key == "" {
		return
	}
	killExtensions(st, key)
	st.binds[key] = v
}

func (w *walker) bindLValue(st *pstate, lhs ast.Expr, v symVal) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		w.bindIdent(st, e, v)
	case *ast.SelectorExpr:
		base := w.evalExpr(st, e.X)
		sel := e.Sel.Name
		// Writing the subject's coherence state.
		if (base.k == kSubjEntry || base.k == kSubjFrame) && sel == "State" {
			st.cur = w.maskOfState(v)
			st.wrote = true
			killField(st, sel)
			return
		}
		// Retargeting a message literal's kind before it is sent.
		if sel == "Kind" {
			if bkey := w.keyOf(e.X); bkey != "" {
				if b, ok := st.binds[bkey]; ok && b.k == kMsgLit {
					nb := b
					nb.mask = 0
					if v.k == kEnum && v.dom == w.x.kindDom {
						nb.mask = v.mask
					}
					st.binds[bkey] = nb
					return
				}
			}
		}
		// A message literal parked in a field is a deferred send.
		if v.k == kMsgLit {
			st.sends |= v.mask
		}
		// Updating a known struct's field.
		if bkey := w.keyOf(e.X); bkey != "" {
			if b, ok := st.binds[bkey]; ok && b.k == kStruct {
				nf := make(map[string]symVal, len(b.fields)+1)
				for fk, fv := range b.fields {
					nf[fk] = fv
				}
				nf[sel] = v
				st.binds[bkey] = symVal{k: kStruct, fields: nf}
			}
		}
		killField(st, sel)
	default:
		// Star/index stores: nothing tracked.
	}
}

func (w *walker) killLValue(st *pstate, lhs ast.Expr) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		w.bindIdent(st, e, unknownVal)
	case *ast.SelectorExpr:
		killField(st, e.Sel.Name)
	}
}

// killExtensions drops shadow bindings derived from key (fields, nil facts).
func killExtensions(st *pstate, key string) {
	prefix := key + "."
	nilKey := key + "\x00nil"
	for k := range st.binds {
		if k == nilKey || len(k) > len(prefix) && k[:len(prefix)] == prefix {
			delete(st.binds, k)
		}
	}
}

// killField conservatively drops every binding that mentions field sel, since
// an aliased store may have changed it.
func killField(st *pstate, sel string) {
	needle := "." + sel
	for k := range st.binds {
		if idx := strings.Index(k, needle); idx >= 0 {
			rest := k[idx+len(needle):]
			if rest == "" || rest[0] == '.' || rest[0] == '\x00' {
				delete(st.binds, k)
			}
		}
	}
}

// keyForObj is the canonical binding key for a named object.
func keyForObj(obj types.Object) string {
	return obj.Name() + "@" + strconv.Itoa(int(obj.Pos()))
}

// keyOf renders a bindable expression (an identifier or a selector chain) as
// a canonical key; controller receivers normalize to "<recv>" so
// configuration facts stay consistent across inlined methods.
func (w *walker) keyOf(e ast.Expr) string {
	switch ex := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.x.src.info.Uses[ex]
		if obj == nil {
			obj = w.x.src.info.Defs[ex]
		}
		if obj == nil {
			return ""
		}
		if w.x.recvObjs[obj] {
			return "<recv>"
		}
		return keyForObj(obj)
	case *ast.SelectorExpr:
		base := w.keyOf(ex.X)
		if base == "" {
			return ""
		}
		return base + "." + ex.Sel.Name
	}
	return ""
}
