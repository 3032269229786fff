package protomodel

import (
	"go/ast"
	"go/types"

	"dsisim/internal/analysis"
)

// This file classifies calls: terminal assertions fail the path; calls into
// the obs sink, the cache array, the directory controller's entry accessor,
// the DSI policy's identifier, and the sync flush get protocol semantics from
// small tables; same-package functions inline (with a rewrite for the
// occupancy-deferred admit→process hop); everything else is opaque, with
// function-literal arguments walked once under "may execute" semantics.

// tableKeyOf renders a declaration as its fnIndex key ("Recv.Name" / "Name").
func tableKeyOf(decl *ast.FuncDecl) string {
	key := decl.Name.Name
	if decl.Recv != nil && len(decl.Recv.List) > 0 {
		if rn := recvTypeName(decl.Recv.List[0].Type); rn != "" {
			key = rn + "." + key
		}
	}
	return key
}

func inStack(stack []*ast.FuncDecl, decl *ast.FuncDecl) bool {
	for _, d := range stack {
		if d == decl {
			return true
		}
	}
	return false
}

func (w *walker) evalArgs(st *pstate, call *ast.CallExpr) []symVal {
	args := make([]symVal, len(call.Args))
	for i, a := range call.Args {
		args[i] = w.evalExpr(st, a)
	}
	return args
}

func (w *walker) execCall(fr *frame, st *pstate, call *ast.CallExpr, k cont) {
	// Terminal assertion: the path dies here (recorded as a fail outcome).
	if analysis.IsColdCall(w.x.src.info, w.x.src.dirs, call) {
		w.fail(st, call.Pos())
		return
	}
	// Type conversion: the subject address survives, everything else blurs.
	if tv, ok := w.x.src.info.Types[call.Fun]; ok && tv.IsType() {
		v := unknownVal
		if len(call.Args) == 1 {
			if av := w.evalExpr(st, call.Args[0]); av.k == kSubjAddr || av.k == kEnum {
				v = av
			}
		}
		k(st, []symVal{v})
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := w.x.src.info.Uses[id].(*types.Builtin); ok {
			k(st, []symVal{unknownVal})
			return
		}
	}
	decl := w.calleeDecl(call)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		recvT := w.x.src.info.TypeOf(sel.X)
		switch {
		case isNamedType(recvT, "dsisim/internal/obs", "Sink"):
			st.emit(name)
			k(st, nil)
			return
		case isNamedType(recvT, "dsisim/internal/cache", "Cache") && w.space == w.x.cacheSpace:
			w.cacheCall(st, call, name, k)
			return
		}
		// Policy decisions are made in internal/core, outside the walked
		// package, so they are classified by name: SetShared/SetIdle on the
		// subject entry moves the directory state into the corresponding
		// family.
		if (name == "SetShared" || name == "SetIdle") && w.space == w.x.dirSpace &&
			len(call.Args) >= 1 && w.evalExpr(st, call.Args[0]).k == kSubjEntry {
			if name == "SetShared" {
				st.cur = w.x.dirSpace.shared
			} else {
				st.cur = w.x.dirSpace.idle
			}
			st.wrote = true
			k(st, nil)
			return
		}
		// The node's sync-point flush may self-invalidate the subject block.
		if name == "OnSync" && w.space == w.x.cacheSpace {
			st.cur |= w.x.cacheSpace.bitOf("Invalid")
			st.wrote = true
			k(st, []symVal{unknownVal})
			return
		}
		// A send with a known message literal records its kind set; the
		// controllers' send helpers and netsim's Send both match here.
		if (name == "send" || name == "Send") && len(call.Args) == 1 {
			if v := w.evalExpr(st, call.Args[0]); v.k == kMsgLit {
				st.sends |= v.mask
				k(st, nil)
				return
			}
		}
	}
	if decl != nil {
		switch tableKeyOf(decl) {
		case "DirCtrl.admit":
			// admit parks the request across the directory occupancy and the
			// event queue resumes it in process: model the hop as a direct
			// call.
			if p := w.x.fnIndex["DirCtrl.process"]; p != nil &&
				fr.depth < maxDepth && !inStack(fr.stack, p) {
				w.callFunc(p, st, w.evalArgs(st, call), fr.depth+1, fr.stack, k)
				return
			}
		case "DirCtrl.entry":
			k(st, []symVal{{k: kSubjEntry}})
			return
		case "DirCtrl.newTxn", "CacheCtrl.newMshr":
			if len(call.Args) >= 1 {
				k(st, []symVal{w.evalExpr(st, call.Args[0])})
				return
			}
		case "DirCtrl.dequeue", "CacheCtrl.retire":
			// Re-admitting a queued request (dequeue) or re-buffering parked
			// stores (retire) starts a different trigger's transition, modeled
			// by that trigger's own root.
			k(st, nil)
			return
		case "DirCtrl.block", "DirCtrl.pushQueue", "DirCtrl.popQueue",
			"CacheCtrl.freeMshr", "CacheCtrl.home", "DirCtrl.home":
			// Pooling and queue plumbing: protocol-neutral by construction.
			k(st, []symVal{unknownVal, unknownVal})
			return
		}
		if fr.depth < maxDepth && !inStack(fr.stack, decl) {
			w.callFunc(decl, st, w.evalArgs(st, call), fr.depth+1, fr.stack, k)
			return
		}
	}
	// Opaque call: any function literal handed in may run (ForEach fan-outs).
	w.walkLitArgs(fr, st, call, 0, func(st2 *pstate) {
		k(st2, []symVal{w.evalCallPure(st2, call)})
	})
}

// walkLitArgs walks each function-literal argument once, in order, then
// resumes with k.
func (w *walker) walkLitArgs(fr *frame, st *pstate, call *ast.CallExpr, i int, k func(*pstate)) {
	for ; i < len(call.Args); i++ {
		if lit, ok := ast.Unparen(call.Args[i]).(*ast.FuncLit); ok {
			next := i + 1
			w.callLit(lit, st, fr.depth, fr.stack, func(st2 *pstate) {
				w.walkLitArgs(fr, st2, call, next, k)
			})
			return
		}
	}
	k(st)
}

// cacheCall gives the cache array's mutators their transition semantics when
// applied to the subject block; other blocks' operations are opaque.
func (w *walker) cacheCall(st *pstate, call *ast.CallExpr, name string, k cont) {
	sp := w.x.cacheSpace
	inv := sp.bitOf("Invalid")
	valid := sp.full &^ inv
	excl := sp.bitOf("Exclusive")
	subj := len(call.Args) >= 1 && w.evalExpr(st, call.Args[0]).k == kSubjAddr
	if !subj {
		k(st, []symVal{unknownVal, unknownVal})
		return
	}
	// split runs the continuation on the "yes" refinement and the "no"
	// refinement of the subject's state, whichever are feasible.
	split := func(yes, no uint32, ky, kn func(*pstate)) {
		if yes != 0 {
			s2 := st
			if no != 0 {
				s2 = st.clone()
			}
			s2.cur = yes
			ky(s2)
		}
		if no != 0 {
			st.cur = no
			kn(st)
		}
	}
	switch name {
	case "Lookup", "Peek":
		split(st.cur&valid, st.cur&inv,
			func(s *pstate) { k(s, []symVal{{k: kSubjFrame}, {k: kBool, b: true}}) },
			func(s *pstate) { k(s, []symVal{unknownVal, {k: kBool, b: false}}) })
	case "Invalidate":
		had := st.cur & valid
		split(had, st.cur&inv,
			func(s *pstate) {
				s.cur = inv
				s.wrote = true
				ev := symVal{k: kStruct, fields: map[string]symVal{
					"State": {k: kEnum, dom: sp.dom, mask: had},
				}}
				k(s, []symVal{ev, {k: kBool, b: true}})
			},
			func(s *pstate) { k(s, []symVal{unknownVal, {k: kBool, b: false}}) })
	case "Downgrade":
		split(st.cur&excl, st.cur&^excl,
			func(s *pstate) {
				s.cur = sp.bitOf("Shared")
				s.wrote = true
				k(s, []symVal{unknownVal, {k: kBool, b: true}})
			},
			func(s *pstate) { k(s, []symVal{unknownVal, {k: kBool, b: false}}) })
	case "Install":
		next := valid
		if len(call.Args) >= 2 {
			if fv := w.evalExpr(st, call.Args[1]); fv.k == kStruct {
				if s, ok := fv.fields["State"]; ok {
					if m := w.maskOfState(s) &^ inv; m != 0 {
						next = m
					}
				}
			}
		}
		st.cur = next
		st.wrote = true
		k(st, []symVal{unknownVal, unknownVal})
	default:
		// Mark, EchoVersion, ...: no state transition.
		k(st, []symVal{unknownVal, unknownVal})
	}
}
