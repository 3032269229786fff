package protomodel

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strconv"
	"strings"

	"dsisim/internal/analysis"
	"dsisim/internal/analysis/cfg"
)

// ProtoPackage is the import path the extractor understands.
const ProtoPackage = "dsisim/internal/proto"

// debugSteps prints per-root path-exploration statistics (set via
// PROTOMODEL_DEBUG=1) for tuning the step budget.
var debugSteps = os.Getenv("PROTOMODEL_DEBUG") != ""

// Problem is one completeness finding from extraction.
type Problem struct {
	Pos token.Pos
	Msg string
}

// source bundles the loaded syntax and type information extraction runs on.
type source struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	dirs  *analysis.Directives
}

// ExtractPass runs extraction from an analyzer pass (the dsivet suite path).
func ExtractPass(pass *analysis.Pass) (*Model, []Problem) {
	return extract(&source{fset: pass.Fset, files: pass.Files, pkg: pass.Pkg, info: pass.TypesInfo, dirs: pass.Directives})
}

// ExtractPackage runs extraction from a loader package (the -model path).
func ExtractPackage(p *analysis.Package) (*Model, []Problem) {
	return extract(&source{fset: p.Fset, files: p.Files, pkg: p.Pkg, info: p.Info, dirs: p.Directives})
}

// --- value domain -----------------------------------------------------------

const (
	kUnknown   byte = iota
	kBool           // known boolean
	kEnum           // set of values of a small integer enum (mask, dom)
	kSubjAddr       // the subject block address
	kSubjMsg        // the trigger message
	kSubjEntry      // the subject's *directory.Entry
	kSubjFrame      // the subject's *cache.Frame
	kStruct         // struct literal value with known fields
	kMsgLit         // a netsim.Message under construction (mask = kind set)
)

// symVal is a value in the walker's abstract domain.
type symVal struct {
	k      byte
	b      bool
	mask   uint32
	dom    *types.TypeName
	fields map[string]symVal
}

var unknownVal = symVal{}

// pstate is one symbolic path: the subject's possible states plus bindings
// and the effects accumulated so far.
type pstate struct {
	cur      uint32 // subject coherence-state mask (walker's space)
	wrote    bool   // some statement wrote the subject state
	sends    uint32 // message kinds sent (bit = netsim.Kind value)
	counters map[string]bool
	emits    map[string]bool
	binds    map[string]symVal
}

func (s *pstate) clone() *pstate {
	c := &pstate{cur: s.cur, wrote: s.wrote, sends: s.sends}
	c.counters = make(map[string]bool, len(s.counters))
	for k := range s.counters {
		c.counters[k] = true
	}
	c.emits = make(map[string]bool, len(s.emits))
	for k := range s.emits {
		c.emits[k] = true
	}
	c.binds = make(map[string]symVal, len(s.binds))
	for k, v := range s.binds {
		c.binds[k] = v
	}
	return c
}

func (s *pstate) counter(name string) { s.counters[name] = true }
func (s *pstate) emit(name string)    { s.emits[name] = true }

// outcome is one completed path through a dispatch root.
type outcome struct {
	final    uint32
	wrote    bool
	sends    uint32
	counters map[string]bool
	emits    map[string]bool
	failed   bool
	failPos  token.Pos
}

// --- state spaces and vocabularies ------------------------------------------

// space is one controller's coherence-state vocabulary.
type space struct {
	names  []string
	dom    *types.TypeName
	full   uint32
	shared uint32 // dir: states State.IsShared() covers
	idle   uint32 // dir: states State.IsIdle() covers
}

func (sp *space) bitOf(name string) uint32 {
	for i, n := range sp.names {
		if n == name {
			return 1 << uint(i)
		}
	}
	return 0
}

// --- extractor --------------------------------------------------------------

type extractor struct {
	src   *source
	probs []Problem

	funcs    map[types.Object]*ast.FuncDecl
	fnIndex  map[string]*ast.FuncDecl // "Recv.Name" -> decl
	recvObjs map[types.Object]bool

	graphs map[*ast.BlockStmt]*cfg.Graph
	vis    map[*ast.BlockStmt][]bool
	owner  map[*ast.BlockStmt]token.Pos

	dirSpace, cacheSpace *space
	kindDom              *types.TypeName
	kindNames            []string
	kindVal              map[string]uint32

	waivers     map[*token.File]map[int]string
	usedWaivers map[string]bool

	budgetHit bool
}

func extract(src *source) (*Model, []Problem) {
	x := &extractor{
		src:         src,
		funcs:       make(map[types.Object]*ast.FuncDecl),
		fnIndex:     make(map[string]*ast.FuncDecl),
		recvObjs:    make(map[types.Object]bool),
		graphs:      make(map[*ast.BlockStmt]*cfg.Graph),
		vis:         make(map[*ast.BlockStmt][]bool),
		owner:       make(map[*ast.BlockStmt]token.Pos),
		usedWaivers: make(map[string]bool),
	}
	if !x.harvest() {
		return nil, x.probs
	}
	x.index()
	model := x.buildModel()
	x.checkDeadArms()
	x.checkStaleWaivers()
	if x.budgetHit {
		x.problem(token.NoPos, "protomodel: path budget exceeded; the model may be incomplete")
	}
	sort.SliceStable(x.probs, func(i, j int) bool { return x.probs[i].Pos < x.probs[j].Pos })
	return model, x.probs
}

func (x *extractor) problem(pos token.Pos, format string, args ...any) {
	x.probs = append(x.probs, Problem{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// harvest resolves the enum vocabularies from the proto package's imports.
func (x *extractor) harvest() bool {
	var dirPkg, cachePkg, netPkg *types.Package
	for _, p := range x.src.pkg.Imports() {
		switch p.Path() {
		case "dsisim/internal/directory":
			dirPkg = p
		case "dsisim/internal/cache":
			cachePkg = p
		case "dsisim/internal/netsim":
			netPkg = p
		}
	}
	if dirPkg == nil || cachePkg == nil || netPkg == nil {
		x.problem(token.NoPos, "protomodel: package does not import the directory/cache/netsim triple; not the proto package")
		return false
	}
	var ok bool
	if x.dirSpace, ok = harvestSpace(dirPkg, "State"); !ok {
		x.problem(token.NoPos, "protomodel: cannot enumerate directory.State")
		return false
	}
	x.dirSpace.shared = x.dirSpace.bitOf("Shared") | x.dirSpace.bitOf("SharedSI")
	x.dirSpace.idle = x.dirSpace.bitOf("Idle") | x.dirSpace.bitOf("IdleX") |
		x.dirSpace.bitOf("IdleS") | x.dirSpace.bitOf("IdleSI")
	if x.cacheSpace, ok = harvestSpace(cachePkg, "State"); !ok {
		x.problem(token.NoPos, "protomodel: cannot enumerate cache.State")
		return false
	}
	kinds, ok := harvestSpace(netPkg, "Kind")
	if !ok {
		x.problem(token.NoPos, "protomodel: cannot enumerate netsim.Kind")
		return false
	}
	x.kindDom = kinds.dom
	x.kindNames = kinds.names
	x.kindVal = make(map[string]uint32, len(kinds.names))
	for i, n := range kinds.names {
		x.kindVal[n] = 1 << uint(i)
	}
	x.waivers = make(map[*token.File]map[int]string)
	for _, s := range x.src.dirs.UnreachableSites() {
		lines := x.waivers[s.File]
		if lines == nil {
			lines = make(map[int]string)
			x.waivers[s.File] = lines
		}
		lines[s.Line] = s.Arg
	}
	return true
}

// harvestSpace enumerates the exported constants of pkg's named integer type,
// indexed by value (skipping Num* sentinels).
func harvestSpace(pkg *types.Package, typeName string) (*space, bool) {
	tn, ok := pkg.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		return nil, false
	}
	sp := &space{dom: tn}
	for _, n := range pkg.Scope().Names() {
		if !token.IsExported(n) || strings.HasPrefix(n, "Num") {
			continue
		}
		c, ok := pkg.Scope().Lookup(n).(*types.Const)
		if !ok {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj() != tn {
			continue
		}
		v, ok := constant.Int64Val(c.Val())
		if !ok || v < 0 || v >= 32 {
			continue
		}
		for int64(len(sp.names)) <= v {
			sp.names = append(sp.names, "")
		}
		if sp.names[v] == "" {
			sp.names[v] = n
		}
	}
	if len(sp.names) == 0 {
		return nil, false
	}
	for _, n := range sp.names {
		if n == "" {
			return nil, false
		}
	}
	sp.full = uint32(1)<<uint(len(sp.names)) - 1
	return sp, true
}

// index builds the package's function table.
func (x *extractor) index() {
	for _, f := range x.src.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := x.src.info.Defs[fd.Name]; obj != nil {
				x.funcs[obj] = fd
			}
			key := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				if rn := recvTypeName(fd.Recv.List[0].Type); rn != "" {
					key = rn + "." + key
				}
				for _, name := range fd.Recv.List[0].Names {
					if obj := x.src.info.Defs[name]; obj != nil {
						x.recvObjs[obj] = true
					}
				}
			}
			x.fnIndex[key] = fd
		}
	}
}

func recvTypeName(t ast.Expr) string {
	switch e := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return ""
}

func (x *extractor) graphFor(body *ast.BlockStmt, at token.Pos) *cfg.Graph {
	if g, ok := x.graphs[body]; ok {
		return g
	}
	g := cfg.New(body, cfg.Options{IsTerminal: func(c *ast.CallExpr) bool {
		return analysis.IsColdCall(x.src.info, x.src.dirs, c)
	}})
	x.graphs[body] = g
	x.vis[body] = make([]bool, len(g.Blocks))
	x.owner[body] = at
	return g
}

// --- dispatch roots ---------------------------------------------------------

type rootSpec struct {
	ctrl    string
	trigger string
	fn      *ast.FuncDecl
	kinds   uint32 // subject message kind mask (message roots)
	seedTxn bool   // seed the *txn arg's action with {Inv, Recall}
}

func (x *extractor) roots() []rootSpec {
	need := func(key string) *ast.FuncDecl {
		fd := x.fnIndex[key]
		if fd == nil {
			x.problem(token.NoPos, "protomodel: dispatch root %s not found", key)
		}
		return fd
	}
	dirHandle := need("DirCtrl.Handle")
	ccHandle := need("CacheCtrl.Handle")
	var roots []rootSpec
	for i, n := range x.kindNames {
		if dirHandle != nil {
			roots = append(roots, rootSpec{ctrl: "dir", trigger: n, fn: dirHandle, kinds: 1 << uint(i)})
		}
		if ccHandle != nil {
			roots = append(roots, rootSpec{ctrl: "cache", trigger: n, fn: ccHandle, kinds: 1 << uint(i)})
		}
	}
	for _, r := range []struct{ trig, key string }{
		{"op:read", "CacheCtrl.Read"},
		{"op:write", "CacheCtrl.Write"},
		{"op:swap", "CacheCtrl.Swap"},
		{"op:sync", "CacheCtrl.SyncFlush"},
		{"timeout:miss", "CacheCtrl.onMissTimeout"},
		{"timeout:final", "CacheCtrl.onFinalTimeout"},
	} {
		if fd := need(r.key); fd != nil {
			roots = append(roots, rootSpec{ctrl: "cache", trigger: r.trig, fn: fd})
		}
	}
	if fd := need("DirCtrl.onTxnTimeout"); fd != nil {
		roots = append(roots, rootSpec{ctrl: "dir", trigger: "timeout:txn", fn: fd, seedTxn: true})
	}
	return roots
}

// bindRootArgs maps a root's parameters to initial symbolic values by type.
func (x *extractor) bindRootArgs(spec rootSpec) []symVal {
	var args []symVal
	for _, field := range spec.fn.Type.Params.List {
		v := unknownVal
		switch {
		case isNamedType(x.src.info.TypeOf(field.Type), "dsisim/internal/netsim", "Message"):
			v = symVal{k: kSubjMsg}
		case isNamedType(x.src.info.TypeOf(field.Type), "dsisim/internal/mem", "Addr"):
			v = symVal{k: kSubjAddr}
		case spec.seedTxn && isNamedType(x.src.info.TypeOf(field.Type), ProtoPackage, "txn"):
			v = symVal{k: kStruct, fields: map[string]symVal{
				"action": {k: kEnum, dom: x.kindDom, mask: x.kindVal["Inv"] | x.kindVal["Recall"]},
			}}
		}
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			args = append(args, v)
		}
	}
	return args
}

// isNamedType reports whether t (after pointer stripping) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// --- model assembly ---------------------------------------------------------

func (x *extractor) buildModel() *Model {
	model := &Model{SchemaVersion: Schema, Package: x.src.pkg.Path(), Kinds: x.kindNames}
	roots := x.roots()
	dir := Controller{Name: "dir", States: x.dirSpace.names}
	cache := Controller{Name: "cache", States: x.cacheSpace.names}
	// failUses aggregates unwaived all-fail sites across triples so each
	// site yields one finding listing every pair that dies there.
	failUses := make(map[token.Pos][]string)
	for _, spec := range roots {
		sp := x.dirSpace
		ctl := &dir
		if spec.ctrl == "cache" {
			sp = x.cacheSpace
			ctl = &cache
		}
		for s := range sp.names {
			t := x.runRoot(spec, sp, uint32(1)<<uint(s), failUses)
			ctl.Transitions = append(ctl.Transitions, t)
		}
	}
	var pts []token.Pos
	for pos := range failUses {
		pts = append(pts, pos)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	for _, pos := range pts {
		pairs := failUses[pos]
		sort.Strings(pairs)
		x.problem(pos, "unhandled protocol pairs terminate only in this assertion without a //dsi:unreachable waiver: %s", strings.Join(pairs, ", "))
	}
	model.Controllers = []Controller{dir, cache}
	return model
}

// runRoot walks one (root, entry state) pair and folds its outcomes into a
// Transition.
func (x *extractor) runRoot(spec rootSpec, sp *space, entry uint32, failUses map[token.Pos][]string) Transition {
	w := &walker{x: x, space: sp, trigKinds: spec.kinds}
	st := &pstate{
		cur:      entry,
		counters: make(map[string]bool),
		emits:    make(map[string]bool),
		binds:    make(map[string]symVal),
	}
	w.callFunc(spec.fn, st, x.bindRootArgs(spec), 0, nil, func(st2 *pstate, _ []symVal) {
		w.outcomes = append(w.outcomes, outcome{
			final: st2.cur, wrote: st2.wrote, sends: st2.sends,
			counters: st2.counters, emits: st2.emits,
		})
	})

	stateName := sp.names[bitIndex(entry)]
	if debugSteps {
		fmt.Printf("root %s/%s state %s: steps=%d outcomes=%d\n", spec.ctrl, spec.trigger, stateName, w.steps, len(w.outcomes))
	}
	t := Transition{Trigger: spec.trigger, State: stateName}
	if len(w.outcomes) == 0 {
		t.Kind = Infeasible
		return t
	}
	allFail := true
	anyFail := false
	var finals uint32
	anyWrote := false
	counters := make(map[string]bool)
	emits := make(map[string]bool)
	var sends uint32
	for _, o := range w.outcomes {
		if o.failed {
			anyFail = true
			continue
		}
		allFail = false
		finals |= o.final
		anyWrote = anyWrote || o.wrote
		sends |= o.sends
		for c := range o.counters {
			counters[c] = true
		}
		for e := range o.emits {
			emits[e] = true
		}
	}
	if allFail {
		// Every path dies in an assertion: the pair needs a waiver on each
		// distinct fail site.
		t.Kind = Waived
		seen := make(map[token.Pos]bool)
		for _, o := range w.outcomes {
			if seen[o.failPos] {
				continue
			}
			seen[o.failPos] = true
			if arg, ok := x.waiverAt(o.failPos); ok {
				reason, rok := ParseWaiverReason(firstToken(arg))
				if !rok {
					x.problem(o.failPos, "//dsi:unreachable waiver needs a reason token (not-routed or invariant), got %q", arg)
				}
				if t.Reason == ReasonNone {
					t.Reason = reason
				}
			} else {
				t.Kind = Fail
				key := fmt.Sprintf("(%s, %s, %s)", ctrlName(sp == x.cacheSpace), t.Trigger, t.State)
				failUses[o.failPos] = append(failUses[o.failPos], key)
			}
		}
		return t
	}
	t.Kind = Handled
	t.MayFail = anyFail
	if anyWrote {
		for i, n := range sp.names {
			if finals&(1<<uint(i)) != 0 {
				t.Next = append(t.Next, n)
			}
		}
	}
	for i, n := range x.kindNames {
		if sends&(1<<uint(i)) != 0 {
			t.Sends = append(t.Sends, n)
		}
	}
	t.Counters = sortedStrings(counters)
	t.Emits = sortedStrings(emits)
	if anyWrote && len(t.Counters) == 0 && len(t.Emits) == 0 {
		x.problem(spec.fn.Pos(), "silent transition: (%s, %s, %s) changes coherence state without a stats counter or obs emission on any path",
			ctrlName(sp == x.cacheSpace), t.Trigger, t.State)
	}
	return t
}

func ctrlName(isCache bool) string {
	if isCache {
		return "cache"
	}
	return "dir"
}

func bitIndex(mask uint32) int {
	for i := 0; i < 32; i++ {
		if mask&(1<<uint(i)) != 0 {
			return i
		}
	}
	return 0
}

func firstToken(s string) string {
	fs := strings.Fields(s)
	if len(fs) == 0 {
		return ""
	}
	return fs[0]
}

// waiverAt checks pos's line (or the line above) for a //dsi:unreachable
// directive and marks it used.
func (x *extractor) waiverAt(pos token.Pos) (string, bool) {
	tf := x.src.fset.File(pos)
	if tf == nil {
		return "", false
	}
	lines := x.waivers[tf]
	if lines == nil {
		return "", false
	}
	l := tf.Line(pos)
	if arg, ok := lines[l]; ok {
		x.usedWaivers[tf.Name()+":"+strconv.Itoa(l)] = true
		return arg, true
	}
	if arg, ok := lines[l-1]; ok {
		x.usedWaivers[tf.Name()+":"+strconv.Itoa(l-1)] = true
		return arg, true
	}
	return "", false
}

// --- post-extraction checks -------------------------------------------------

// checkDeadArms reports live blocks of entered functions no feasible
// (controller, trigger, state) walk ever visited. Blocks that exist only to
// assert (fail-terminated) or to return are exempt: unreachable defensive
// arms are the waiver mechanism's domain, not dead code.
func (x *extractor) checkDeadArms() {
	type dead struct {
		pos token.Pos
	}
	var found []dead
	for body, g := range x.graphs {
		vis := x.vis[body]
		for _, blk := range g.Blocks {
			if !blk.Live || blk == g.Exit || vis[blk.Index] {
				continue
			}
			if pos, meaningful := blockAnchor(x, blk); meaningful {
				found = append(found, dead{pos})
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	for _, d := range found {
		x.problem(d.pos, "dead transition arm: no (controller, trigger, state) pair reaches this code")
	}
}

// blockAnchor decides whether an unvisited block is worth reporting and where.
func blockAnchor(x *extractor, blk *cfg.Block) (token.Pos, bool) {
	meaningful := false
	var pos token.Pos
	for _, n := range blk.Nodes {
		switch s := n.(type) {
		case *ast.ReturnStmt, *ast.EmptyStmt:
			continue
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if analysis.IsColdCall(x.src.info, x.src.dirs, call) {
					// A fail-only arm: handled by the waiver checks.
					return token.NoPos, false
				}
			}
		}
		if !meaningful {
			meaningful = true
			pos = n.Pos()
		}
	}
	if !meaningful && blk.Cond != nil {
		return blk.Cond.Pos(), true
	}
	return pos, meaningful
}

func (x *extractor) checkStaleWaivers() {
	for _, s := range x.src.dirs.UnreachableSites() {
		if !x.usedWaivers[s.File.Name()+":"+strconv.Itoa(s.Line)] {
			x.problem(s.File.LineStart(s.Line),
				"stale //dsi:unreachable waiver: no all-fail (controller, trigger, state) pair terminates here")
		}
	}
}
