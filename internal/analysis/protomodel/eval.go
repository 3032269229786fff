package protomodel

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// This file holds the expression side of the walker: abstract evaluation,
// condition assumption (path refinement and pruning), and the call tables
// that give cache-array, directory, policy, and sink calls their protocol
// semantics.

// maskSide is one side of an enum comparison: either the live subject state
// (refines pstate.cur) or a bindable snapshot (refines its binding).
type maskSide struct {
	live bool
	mask uint32
	key  string
	dom  *types.TypeName
}

// maskSideOf classifies e as an enum-valued side.
func (w *walker) maskSideOf(st *pstate, e ast.Expr) (maskSide, bool) {
	if w.isLiveState(st, e) {
		return maskSide{live: true, mask: st.cur, dom: w.space.dom}, true
	}
	v := w.evalExpr(st, e)
	if v.k == kEnum && v.mask != 0 {
		return maskSide{mask: v.mask, key: w.keyOf(e), dom: v.dom}, true
	}
	return maskSide{}, false
}

// isLiveState reports whether e reads the subject's current coherence state.
func (w *walker) isLiveState(st *pstate, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "State" {
		return false
	}
	base := w.evalExpr(st, sel.X)
	return base.k == kSubjEntry || base.k == kSubjFrame
}

func (w *walker) setSide(st *pstate, side maskSide, m uint32) {
	if side.live {
		st.cur = m
		return
	}
	if side.key != "" {
		st.binds[side.key] = symVal{k: kEnum, mask: m, dom: side.dom}
	}
}

// maskOfState interprets v as a state set in the walker's space.
func (w *walker) maskOfState(v symVal) uint32 {
	if v.k == kEnum && v.dom == w.space.dom && v.mask != 0 {
		return v.mask
	}
	return w.space.full
}

// --- expression evaluation --------------------------------------------------

func (w *walker) evalExpr(st *pstate, e ast.Expr) symVal {
	e = ast.Unparen(e)
	// Constants first: qualified enum constants carry their value here.
	if tv, ok := w.x.src.info.Types[e]; ok && tv.Value != nil {
		return w.constVal(tv)
	}
	switch ex := e.(type) {
	case *ast.Ident:
		if key := w.keyOf(ex); key != "" {
			if v, ok := st.binds[key]; ok {
				return v
			}
		}
		return unknownVal
	case *ast.SelectorExpr:
		base := w.evalExpr(st, ex.X)
		sel := ex.Sel.Name
		if (base.k == kSubjEntry || base.k == kSubjFrame) && sel == "State" {
			return symVal{k: kEnum, dom: w.space.dom, mask: st.cur}
		}
		// Path-refined shadow bindings shadow structural lookups.
		if key := w.keyOf(ex); key != "" {
			if v, ok := st.binds[key]; ok {
				return v
			}
		}
		switch base.k {
		case kSubjMsg:
			switch sel {
			case "Kind":
				return symVal{k: kEnum, dom: w.x.kindDom, mask: w.trigKinds}
			case "Addr":
				return symVal{k: kSubjAddr}
			}
		case kStruct:
			if v, ok := base.fields[sel]; ok {
				return v
			}
		}
		return unknownVal
	case *ast.UnaryExpr:
		switch ex.Op {
		case token.NOT:
			v := w.evalExpr(st, ex.X)
			if v.k == kBool {
				return symVal{k: kBool, b: !v.b}
			}
		case token.AND:
			// &msg and &netsim.Message{...}: senders pass messages (and pool
			// constructors their initial records) by pointer.
			return w.evalExpr(st, ex.X)
		}
		return unknownVal
	case *ast.BinaryExpr:
		return w.evalBinary(st, ex)
	case *ast.CallExpr:
		return w.evalCallPure(st, ex)
	case *ast.CompositeLit:
		return w.evalComposite(st, ex)
	case *ast.StarExpr:
		return w.evalExpr(st, ex.X)
	}
	return unknownVal
}

func (w *walker) constVal(tv types.TypeAndValue) symVal {
	t := tv.Type
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsBoolean != 0 {
		return symVal{k: kBool, b: constant.BoolVal(tv.Value)}
	}
	named, ok := t.(*types.Named)
	if !ok {
		return unknownVal
	}
	if b, ok := named.Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
		return unknownVal
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok || v < 0 || v >= 32 {
		return unknownVal
	}
	return symVal{k: kEnum, dom: named.Obj(), mask: 1 << uint(v)}
}

func (w *walker) evalBinary(st *pstate, ex *ast.BinaryExpr) symVal {
	switch ex.Op {
	case token.LAND:
		a, b := w.evalExpr(st, ex.X), w.evalExpr(st, ex.Y)
		if a.k == kBool && !a.b || b.k == kBool && !b.b {
			return symVal{k: kBool, b: false}
		}
		if a.k == kBool && a.b && b.k == kBool && b.b {
			return symVal{k: kBool, b: true}
		}
	case token.LOR:
		a, b := w.evalExpr(st, ex.X), w.evalExpr(st, ex.Y)
		if a.k == kBool && a.b || b.k == kBool && b.b {
			return symVal{k: kBool, b: true}
		}
		if a.k == kBool && !a.b && b.k == kBool && !b.b {
			return symVal{k: kBool, b: false}
		}
	case token.EQL, token.NEQ:
		if tri, ok := w.cmpKnown(st, ex.X, ex.Y); ok {
			if ex.Op == token.NEQ {
				tri = !tri
			}
			return symVal{k: kBool, b: tri}
		}
	}
	return unknownVal
}

// cmpKnown decides X == Y when both sides are known enum sets or booleans.
func (w *walker) cmpKnown(st *pstate, xe, ye ast.Expr) (bool, bool) {
	a, aok := w.maskSideOf(st, xe)
	b, bok := w.maskSideOf(st, ye)
	if aok && bok && a.dom == b.dom {
		if a.mask&b.mask == 0 {
			return false, true
		}
		if singleton(a.mask) && a.mask == b.mask {
			return true, true
		}
		return false, false
	}
	va, vb := w.evalExpr(st, xe), w.evalExpr(st, ye)
	if va.k == kBool && vb.k == kBool {
		return va.b == vb.b, true
	}
	return false, false
}

func singleton(m uint32) bool { return m != 0 && m&(m-1) == 0 }

// evalCallPure evaluates calls usable inside larger expressions: table
// passthroughs and decidable state predicates. No effects, no splitting.
func (w *walker) evalCallPure(st *pstate, call *ast.CallExpr) symVal {
	if tv, ok := w.x.src.info.Types[call.Fun]; ok && tv.IsType() {
		arg := w.evalExpr(st, call.Args[0])
		if arg.k == kSubjAddr {
			return arg
		}
		return unknownVal
	}
	if v, ok := st.binds[callKey(call)]; ok {
		return v
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "IsShared", "IsIdle":
			if side, ok := w.maskSideOf(st, sel.X); ok && side.dom == w.x.dirSpace.dom {
				m := w.x.dirSpace.shared
				if sel.Sel.Name == "IsIdle" {
					m = w.x.dirSpace.idle
				}
				if side.mask&^m == 0 {
					return symVal{k: kBool, b: true}
				}
				if side.mask&m == 0 {
					return symVal{k: kBool, b: false}
				}
			}
			return unknownVal
		case "BlockOf", "BlockIndex":
			if len(call.Args) == 1 {
				if arg := w.evalExpr(st, call.Args[0]); arg.k == kSubjAddr {
					return arg
				}
			}
			return unknownVal
		}
		if decl := w.calleeDecl(call); decl != nil {
			switch tableKeyOf(decl) {
			case "DirCtrl.newTxn", "CacheCtrl.newMshr":
				if len(call.Args) == 1 {
					return w.evalExpr(st, call.Args[0])
				}
			case "DirCtrl.entry":
				return symVal{k: kSubjEntry}
			}
		}
	}
	return unknownVal
}

func (w *walker) evalComposite(st *pstate, lit *ast.CompositeLit) symVal {
	t := w.x.src.info.TypeOf(lit)
	if isNamedType(t, "dsisim/internal/netsim", "Message") {
		v := symVal{k: kMsgLit}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Kind" {
				fv := w.evalExpr(st, kv.Value)
				if fv.k == kEnum && fv.dom == w.x.kindDom {
					v.mask = fv.mask
				}
			}
		}
		return v
	}
	if t != nil {
		if _, ok := t.Underlying().(*types.Struct); ok {
			v := symVal{k: kStruct, fields: make(map[string]symVal)}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok {
					v.fields[key.Name] = w.evalExpr(st, kv.Value)
				}
			}
			return v
		}
	}
	return unknownVal
}

// --- assumption (path refinement) -------------------------------------------

// assume refines st under "e is want", returning false when the path is
// infeasible. Unknown atoms are bound (when bindable) so later tests of the
// same expression stay consistent along the path.
func (w *walker) assume(st *pstate, e ast.Expr, want bool) bool {
	e = ast.Unparen(e)
	switch ex := e.(type) {
	case *ast.UnaryExpr:
		if ex.Op == token.NOT {
			return w.assume(st, ex.X, !want)
		}
	case *ast.BinaryExpr:
		switch ex.Op {
		case token.LAND:
			if want {
				return w.assume(st, ex.X, true) && w.assume(st, ex.Y, true)
			}
			xT, yT := w.mustHold(st, ex.X), w.mustHold(st, ex.Y)
			if xT && yT {
				return false
			}
			if xT {
				return w.assume(st, ex.Y, false)
			}
			if yT {
				return w.assume(st, ex.X, false)
			}
			return true
		case token.LOR:
			if !want {
				return w.assume(st, ex.X, false) && w.assume(st, ex.Y, false)
			}
			xF, yF := w.cannotHold(st, ex.X), w.cannotHold(st, ex.Y)
			if xF && yF {
				return false
			}
			if xF {
				return w.assume(st, ex.Y, true)
			}
			if yF {
				return w.assume(st, ex.X, true)
			}
			return true
		case token.EQL, token.NEQ:
			return w.assumeCmp(st, ex.X, ex.Y, (ex.Op == token.EQL) == want)
		}
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(ex.Fun).(*ast.SelectorExpr); ok && len(ex.Args) == 0 {
			if sel.Sel.Name == "IsShared" || sel.Sel.Name == "IsIdle" {
				if side, ok := w.maskSideOf(st, sel.X); ok && side.dom == w.x.dirSpace.dom {
					m := w.x.dirSpace.shared
					if sel.Sel.Name == "IsIdle" {
						m = w.x.dirSpace.idle
					}
					return w.refineWithin(st, side, m, want)
				}
			}
		}
		if v, ok := st.binds[callKey(ex)]; ok && v.k == kBool {
			return v.b == want
		}
		return true
	}
	// Atom.
	v := w.evalExpr(st, e)
	if v.k == kBool {
		return v.b == want
	}
	if key := w.keyOf(e); key != "" {
		st.binds[key] = symVal{k: kBool, b: want}
	}
	return true
}

// mustHold reports whether e is provably true under st.
func (w *walker) mustHold(st *pstate, e ast.Expr) bool {
	return !w.assume(st.clone(), e, false)
}

// cannotHold reports whether e is provably false under st.
func (w *walker) cannotHold(st *pstate, e ast.Expr) bool {
	return !w.assume(st.clone(), e, true)
}

// refineWithin intersects (want) or subtracts (!want) mask m from side.
func (w *walker) refineWithin(st *pstate, side maskSide, m uint32, want bool) bool {
	var nm uint32
	if want {
		nm = side.mask & m
	} else {
		nm = side.mask &^ m
	}
	if nm == 0 {
		return false
	}
	w.setSide(st, side, nm)
	return true
}

// assumeCmp refines st under "X == Y" (positive) or "X != Y".
func (w *walker) assumeCmp(st *pstate, xe, ye ast.Expr, positive bool) bool {
	if w.isNilExpr(ye) {
		return w.assumeNil(st, xe, positive)
	}
	if w.isNilExpr(xe) {
		return w.assumeNil(st, ye, positive)
	}
	a, aok := w.maskSideOf(st, xe)
	b, bok := w.maskSideOf(st, ye)
	if aok && bok && a.dom == b.dom {
		if positive {
			inter := a.mask & b.mask
			if inter == 0 {
				return false
			}
			w.setSide(st, a, inter)
			w.setSide(st, b, inter)
			return true
		}
		if singleton(a.mask) && a.mask == b.mask {
			return false
		}
		if singleton(b.mask) {
			if !w.refineWithin(st, a, b.mask, false) {
				return false
			}
		} else if singleton(a.mask) {
			if !w.refineWithin(st, b, a.mask, false) {
				return false
			}
		}
		return true
	}
	// Boolean equality against a known constant folds to an atom assumption.
	va, vb := w.evalExpr(st, xe), w.evalExpr(st, ye)
	if vb.k == kBool && (va.k == kBool || w.keyOf(xe) != "") {
		return w.assume(st, xe, vb.b == positive)
	}
	if va.k == kBool && w.keyOf(ye) != "" {
		return w.assume(st, ye, va.b == positive)
	}
	return true
}

func (w *walker) isNilExpr(e ast.Expr) bool {
	tv, ok := w.x.src.info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

// assumeNil handles "expr == nil" (positive) / "expr != nil", with shadow
// bindings so repeated nil tests of the same expression agree along a path.
func (w *walker) assumeNil(st *pstate, e ast.Expr, isNil bool) bool {
	// The obs sink is modeled as always attached: emissions are "may" effects,
	// and the runtime cross-check only observes sink-on runs. This also stops
	// per-function `if sk != nil` guards from doubling every inlined path.
	if isNamedType(w.x.src.info.TypeOf(e), "dsisim/internal/obs", "Sink") {
		return !isNil
	}
	v := w.evalExpr(st, e)
	switch v.k {
	case kSubjEntry, kSubjMsg, kStruct, kMsgLit:
		return !isNil
	}
	if key := w.keyOf(e); key != "" {
		nk := key + "\x00nil"
		if b, ok := st.binds[nk]; ok && b.k == kBool {
			return b.b == isNil
		}
		st.binds[nk] = symVal{k: kBool, b: isNil}
	}
	return true
}
