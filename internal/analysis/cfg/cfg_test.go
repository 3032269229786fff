package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as the body of a function and returns its CFG, with
// calls to fail(...) treated as terminal.
func parseBody(t *testing.T, src string) (*Graph, *ast.FuncDecl) {
	t.Helper()
	file := "package p\nfunc fail(args ...any) {}\nfunc f() {\n" + src + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", file, 0)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, file)
	}
	var fd *ast.FuncDecl
	for _, d := range f.Decls {
		if d, ok := d.(*ast.FuncDecl); ok && d.Name.Name == "f" {
			fd = d
		}
	}
	g := New(fd.Body, Options{IsTerminal: func(call *ast.CallExpr) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && (id.Name == "panic" || id.Name == "fail")
	}})
	return g, fd
}

// liveCount returns the number of live blocks.
func liveCount(g *Graph) int {
	n := 0
	for _, b := range g.Blocks {
		if b.Live {
			n++
		}
	}
	return n
}

func TestStraightLine(t *testing.T) {
	g, _ := parseBody(t, "x := 1\n_ = x\nreturn")
	if len(g.Entry.Nodes) != 3 { // x := 1, _ = x, return
		t.Fatalf("entry nodes = %d, want 3", len(g.Entry.Nodes))
	}
	if !g.Exit.Live {
		t.Fatal("exit unreachable in straight-line code")
	}
}

func TestIfElseJoin(t *testing.T) {
	g, _ := parseBody(t, `
x := 1
if x > 0 {
	x = 2
} else {
	x = 3
}
_ = x`)
	// entry(cond) -> then, else -> join -> exit
	if got := liveCount(g); got != 5 {
		t.Fatalf("live blocks = %d, want 5", got)
	}
	if g.Entry.Cond == nil {
		t.Fatal("entry block should carry the if condition")
	}
	var kinds []string
	for _, e := range g.Entry.Edges {
		kinds = append(kinds, e.Kind.String())
	}
	if strings.Join(kinds, ",") != "true,false" {
		t.Fatalf("entry edges = %v, want true,false", kinds)
	}
}

func TestTerminalCallDeadEnds(t *testing.T) {
	g, _ := parseBody(t, `
x := 1
if x == 0 {
	fail("no")
}
_ = x`)
	// The fail block must not reach exit, but the fallthrough path must.
	if !g.Exit.Live {
		t.Fatal("exit should be reachable via the non-fail path")
	}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "fail" {
					if len(b.Edges) != 0 {
						t.Fatalf("fail block has %d out-edges, want 0", len(b.Edges))
					}
				}
			}
		}
	}
}

func TestAllPathsFail(t *testing.T) {
	g, _ := parseBody(t, `fail("always")`)
	if g.Exit.Live {
		t.Fatal("exit reachable although every path fails")
	}
}

func TestSwitchEdges(t *testing.T) {
	g, _ := parseBody(t, `
x := 1
switch x {
case 1:
	x = 10
case 2, 3:
	x = 20
default:
	x = 30
}
_ = x`)
	var caseEdges, defEdges int
	for _, e := range g.Entry.Edges {
		switch e.Kind {
		case EdgeCase:
			caseEdges++
			if e.Case == nil {
				t.Fatal("case edge without clause")
			}
		case EdgeDefault:
			defEdges++
			if e.Case == nil {
				t.Fatal("default edge should carry the default clause")
			}
		case EdgeNext, EdgeTrue, EdgeFalse:
			t.Fatalf("unexpected edge kind %v out of switch block", e.Kind)
		}
	}
	if caseEdges != 2 || defEdges != 1 {
		t.Fatalf("case=%d default=%d, want 2/1", caseEdges, defEdges)
	}
}

func TestSwitchWithoutDefaultFallsPast(t *testing.T) {
	g, _ := parseBody(t, `
x := 1
switch x {
case 1:
	x = 10
}
_ = x`)
	found := false
	for _, e := range g.Entry.Edges {
		if e.Kind == EdgeDefault && e.Case == nil {
			found = true
		}
	}
	if !found {
		t.Fatal("missing implicit default edge past the switch")
	}
}

func TestFallthrough(t *testing.T) {
	g, _ := parseBody(t, `
x := 1
switch x {
case 1:
	x = 10
	fallthrough
case 2:
	x = 20
}
_ = x`)
	// The case-1 block must have an out edge directly into the case-2 block.
	var c1, c2 *Block
	for _, e := range g.Entry.Edges {
		cc, ok := e.Case.(*ast.CaseClause)
		if !ok || len(cc.List) == 0 {
			continue
		}
		if lit, ok := cc.List[0].(*ast.BasicLit); ok {
			switch lit.Value {
			case "1":
				c1 = e.To
			case "2":
				c2 = e.To
			}
		}
	}
	if c1 == nil || c2 == nil {
		t.Fatal("case blocks not found")
	}
	ok := false
	for _, e := range c1.Edges {
		if e.To == c2 {
			ok = true
		}
	}
	if !ok {
		t.Fatal("fallthrough edge case1 -> case2 missing")
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g, _ := parseBody(t, `
s := 0
for i := 0; i < 10; i++ {
	if i == 3 {
		continue
	}
	if i == 7 {
		break
	}
	s += i
}
_ = s`)
	if !g.Exit.Live {
		t.Fatal("exit unreachable")
	}
	// Find the loop head (block whose Stmt is the ForStmt with a Cond).
	var head *Block
	for _, b := range g.Blocks {
		if _, ok := b.Stmt.(*ast.ForStmt); ok && b.Cond != nil {
			head = b
		}
	}
	if head == nil {
		t.Fatal("loop head not found")
	}
	if len(head.Preds) < 2 {
		t.Fatalf("loop head preds = %d, want >= 2 (entry + back edge)", len(head.Preds))
	}
}

func TestRangeLoop(t *testing.T) {
	g, _ := parseBody(t, `
s := 0
for _, v := range []int{1, 2} {
	s += v
}
_ = s`)
	var head *Block
	for _, b := range g.Blocks {
		if _, ok := b.Stmt.(*ast.RangeStmt); ok {
			head = b
		}
	}
	if head == nil {
		t.Fatal("range head not found")
	}
	var kinds []string
	for _, e := range head.Edges {
		kinds = append(kinds, e.Kind.String())
	}
	if strings.Join(kinds, ",") != "true,false" {
		t.Fatalf("range head edges = %v, want true,false", kinds)
	}
	if !g.Exit.Live {
		t.Fatal("exit unreachable")
	}
}

func TestLabeledBreak(t *testing.T) {
	g, _ := parseBody(t, `
outer:
for i := 0; i < 4; i++ {
	for j := 0; j < 4; j++ {
		if i*j > 4 {
			break outer
		}
	}
}
return`)
	if !g.Exit.Live {
		t.Fatal("exit unreachable with labeled break")
	}
}

func TestGotoBackward(t *testing.T) {
	g, _ := parseBody(t, `
i := 0
loop:
i++
if i < 3 {
	goto loop
}
_ = i`)
	if !g.Exit.Live {
		t.Fatal("exit unreachable")
	}
	// The labeled block must have two preds: fallthrough and the goto.
	found := false
	for _, b := range g.Blocks {
		if b.Live && len(b.Preds) >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("no block with goto back edge")
	}
}

func TestDeadCodeAfterReturn(t *testing.T) {
	g, _ := parseBody(t, `
return
x := 1
_ = x`)
	dead := 0
	for _, b := range g.Blocks {
		if !b.Live && len(b.Nodes) > 0 {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("statements after return should land in a dead block")
	}
}

// TestForwardNilness runs the dataflow engine on the canonical obssink
// shape: a fact set of "proven non-nil" variable names with intersection
// merge and refinement on nil-comparison edges.
func TestForwardNilness(t *testing.T) {
	g, _ := parseBody(t, `
var sk *int
if sk != nil {
	_ = *sk // A: non-nil here
}
_ = sk // B: unknown here
if sk == nil {
	return
}
_ = *sk // C: non-nil here`)

	type fact map[string]bool
	clone := func(f fact) fact {
		c := make(fact, len(f))
		for k, v := range f {
			c[k] = v
		}
		return c
	}
	res := Forward(g, Analysis[fact]{
		Entry:    fact{},
		Transfer: func(b *Block, f fact) fact { return f },
		Branch: func(b *Block, e Edge, f fact) (fact, bool) {
			be, ok := ast.Unparen(b.Cond).(*ast.BinaryExpr)
			if !ok {
				return f, true
			}
			id, ok := ast.Unparen(be.X).(*ast.Ident)
			if !ok {
				return f, true
			}
			op := be.Op.String()
			nonNilEdge := (op == "!=" && e.Kind == EdgeTrue) || (op == "==" && e.Kind == EdgeFalse)
			if nonNilEdge {
				f = clone(f)
				f[id.Name] = true
			}
			return f, true
		},
		Merge: func(a, b fact) fact {
			m := fact{}
			for k := range a {
				if b[k] {
					m[k] = true
				}
			}
			return m
		},
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	})

	// Locate the three _ = ... statements by their block facts.
	var comments []bool // non-nil status at each `_ = ...` site in order
	for _, bi := range g.rpo {
		b := g.Blocks[bi]
		for _, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 {
				continue
			}
			if id, ok := as.Lhs[0].(*ast.Ident); !ok || id.Name != "_" {
				continue
			}
			comments = append(comments, res.Reached[bi] && res.In[bi]["sk"])
		}
	}
	want := []bool{true, false, true}
	if len(comments) != len(want) {
		t.Fatalf("found %d probe sites, want %d", len(comments), len(want))
	}
	for i := range want {
		if comments[i] != want[i] {
			t.Fatalf("probe %d: non-nil=%v, want %v", i, comments[i], want[i])
		}
	}
}

// TestBranchCanKillEdges checks that a Branch returning ok=false cuts
// downstream blocks off (Reached=false).
func TestBranchCanKillEdges(t *testing.T) {
	g, _ := parseBody(t, `
x := 1
if x == 1 {
	x = 2
} else {
	x = 3
}
_ = x`)
	type unit struct{}
	res := Forward(g, Analysis[unit]{
		Transfer: func(b *Block, f unit) unit { return f },
		Branch: func(b *Block, e Edge, f unit) (unit, bool) {
			// Pretend the condition is statically true: kill false edges.
			if b.Cond != nil && e.Kind == EdgeFalse {
				return f, false
			}
			return f, true
		},
		Merge: func(a, b unit) unit { return a },
		Equal: func(a, b unit) bool { return true },
	})
	// The else block (x = 3) must be unreached.
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				continue
			}
			if lit, ok := as.Rhs[0].(*ast.BasicLit); ok && lit.Value == "3" {
				if res.Reached[b.Index] {
					t.Fatal("killed edge still reached the else block")
				}
			}
		}
	}
	if !res.Reached[g.Exit.Index] {
		t.Fatal("exit should stay reachable through the true edge")
	}
}

func TestEdgeKindString(t *testing.T) {
	want := map[EdgeKind]string{
		EdgeNext: "next", EdgeTrue: "true", EdgeFalse: "false",
		EdgeCase: "case", EdgeDefault: "default",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("EdgeKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if EdgeKind(250).String() != "EdgeKind(?)" {
		t.Fatal("out-of-range EdgeKind should stringify to placeholder")
	}
}
