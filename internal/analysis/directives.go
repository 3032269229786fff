package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The framework recognizes four //dsi: directives, written like //go:
// compiler directives (no space after the slashes, at the start of a comment
// line):
//
//	//dsi:hotpath   on a function declaration: the hotpath analyzer flags
//	                allocating constructs (closures, interface boxing, fmt
//	                calls, un-capped appends to fresh slices) in its body.
//	//dsi:coldpath  on a function declaration: calls to it are terminal
//	                error paths (panic-or-record); the hotpath and
//	                exhaustive analyzers treat a call to it like panic.
//	//dsi:anyorder  on or immediately above a statement: the determinism
//	                analyzer accepts the map iteration on that line; the
//	                author asserts iteration order cannot reach simulation
//	                state or output.
//	//dsi:unreachable <reason> [— free text]
//	                on or immediately above an assertion call (Env.fail):
//	                the protomodel analyzer accepts that some (controller,
//	                state, message-kind) pairs terminate only in this
//	                assertion. The reason token names why the pair cannot
//	                occur ("not-routed": the network never delivers that
//	                kind to this controller side; "invariant": a protocol
//	                invariant excludes the state).
const (
	DirectiveHotpath     = "dsi:hotpath"
	DirectiveColdpath    = "dsi:coldpath"
	DirectiveAnyorder    = "dsi:anyorder"
	DirectiveUnreachable = "dsi:unreachable"
)

// ColdFuncs names functions outside the analyzed package that count as
// //dsi:coldpath at call sites, keyed by (*types.Func).FullName. Directive
// harvesting reads only the analyzed package's own syntax — dependencies are
// imported from export data, which carries no comments — so cross-package
// terminal error paths must register here. The declaration should still
// carry the //dsi:coldpath comment for readers and same-package call sites.
var ColdFuncs = map[string]bool{
	// The workload kernels' failure report, called under the check it
	// reports.
	"(*dsisim/internal/cpu.Proc).Failf": true,
}

// Directives is the per-package index of //dsi: annotations.
type Directives struct {
	// Hotpath holds the function declarations annotated //dsi:hotpath.
	Hotpath map[*ast.FuncDecl]bool
	// Coldpath holds the objects of functions annotated //dsi:coldpath
	// (same-package resolution: the annotation must be in the analyzed
	// package).
	Coldpath map[types.Object]bool
	// anyorder records, per file, the set of lines carrying a
	// //dsi:anyorder comment.
	anyorder map[*token.File]map[int]bool
	// unreachable records, per file, line -> the directive's argument text
	// (reason token plus optional prose), "" when the bare directive was
	// written without a reason.
	unreachable map[*token.File]map[int]string
}

// CollectDirectives scans the package's syntax for //dsi: directives.
func CollectDirectives(fset *token.FileSet, files []*ast.File, info *types.Info) *Directives {
	d := &Directives{
		Hotpath:     make(map[*ast.FuncDecl]bool),
		Coldpath:    make(map[types.Object]bool),
		anyorder:    make(map[*token.File]map[int]bool),
		unreachable: make(map[*token.File]map[int]string),
	}
	for _, f := range files {
		tf := fset.File(f.Pos())
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if tf == nil {
					continue
				}
				switch {
				case strings.HasPrefix(c.Text, "//"+DirectiveAnyorder):
					lines := d.anyorder[tf]
					if lines == nil {
						lines = make(map[int]bool)
						d.anyorder[tf] = lines
					}
					lines[tf.Line(c.Pos())] = true
				case strings.HasPrefix(c.Text, "//"+DirectiveUnreachable):
					lines := d.unreachable[tf]
					if lines == nil {
						lines = make(map[int]string)
						d.unreachable[tf] = lines
					}
					arg := strings.TrimPrefix(c.Text, "//"+DirectiveUnreachable)
					lines[tf.Line(c.Pos())] = strings.TrimSpace(arg)
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				switch {
				case strings.HasPrefix(c.Text, "//"+DirectiveHotpath):
					d.Hotpath[fd] = true
				case strings.HasPrefix(c.Text, "//"+DirectiveColdpath):
					if info != nil && fd.Name != nil {
						if obj := info.Defs[fd.Name]; obj != nil {
							d.Coldpath[obj] = true
						}
					}
				}
			}
		}
	}
	return d
}

// Anyorder reports whether pos's line, or the line above it, carries a
// //dsi:anyorder directive (so the waiver can sit on its own line above the
// loop or trail the loop header).
func (d *Directives) Anyorder(fset *token.FileSet, pos token.Pos) bool {
	return onLine(d.anyorder, fset, pos)
}

// UnreachableSite is one //dsi:unreachable directive occurrence.
type UnreachableSite struct {
	// File is the file the directive appears in.
	File *token.File
	// Line is the line the directive comment starts on.
	Line int
	// Arg is the directive's argument text (reason token plus optional
	// prose), "" for a bare directive.
	Arg string
}

// UnreachableSites returns every //dsi:unreachable directive in the package,
// in deterministic (file name, line) order. The protomodel analyzer uses this
// to report stale waivers: directives no fail site consumes.
func (d *Directives) UnreachableSites() []UnreachableSite {
	var out []UnreachableSite
	for tf, lines := range d.unreachable {
		for line, arg := range lines {
			out = append(out, UnreachableSite{File: tf, Line: line, Arg: arg})
		}
	}
	sortSites(out)
	return out
}

func sortSites(sites []UnreachableSite) {
	for i := 1; i < len(sites); i++ {
		for j := i; j > 0; j-- {
			a, b := sites[j-1], sites[j]
			if a.File.Name() < b.File.Name() || (a.File.Name() == b.File.Name() && a.Line <= b.Line) {
				break
			}
			sites[j-1], sites[j] = b, a
		}
	}
}

// onLine reports whether pos's line or the line above carries a mark.
func onLine(idx map[*token.File]map[int]bool, fset *token.FileSet, pos token.Pos) bool {
	tf := fset.File(pos)
	if tf == nil {
		return false
	}
	lines := idx[tf]
	if lines == nil {
		return false
	}
	l := tf.Line(pos)
	return lines[l] || lines[l-1]
}

// IsColdCall reports whether call is panic(...) or a call to a function
// annotated //dsi:coldpath, using the pass's type information.
func IsColdCall(info *types.Info, dirs *Directives, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := info.Uses[fun]
		if b, ok := obj.(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
		return coldObject(dirs, obj)
	case *ast.SelectorExpr:
		return coldObject(dirs, info.Uses[fun.Sel])
	}
	return false
}

// coldObject reports whether obj is coldpath: annotated in the analyzed
// package, or registered in ColdFuncs for cross-package call sites.
func coldObject(dirs *Directives, obj types.Object) bool {
	if obj == nil {
		return false
	}
	if dirs.Coldpath[obj] {
		return true
	}
	f, ok := obj.(*types.Func)
	return ok && ColdFuncs[f.FullName()]
}
