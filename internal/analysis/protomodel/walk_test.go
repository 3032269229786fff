package protomodel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// genericSrc declares generic types and functions, and calls them on
// instantiations: method calls, explicit instantiations and an inferred one.
const genericSrc = `package p

type list[T any] struct{ xs []T }

func (l *list[T]) push(x T) { l.xs = append(l.xs, x) }

type table[K comparable, V any] struct{ m map[K]V }

func (t *table[K, V]) get(k K) V { return t.m[k] }

func first[T any](xs []T) T { return xs[0] }

func pair[K comparable, V any](k K, v V) V { return v }

func use() int {
	var l list[int]
	l.push(1)
	var tb table[string, int]
	return first[int](l.xs) + first(l.xs) + pair[string, int]("a", 2) + tb.get("b")
}
`

// TestCalleeDeclResolvesGenerics type-checks genericSrc and requires every
// call in use to resolve to its generic declaration, so the walker inlines a
// method of an instantiated generic type (and an instantiated generic
// function) instead of treating it as an opaque call.
func TestCalleeDeclResolvesGenerics(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", genericSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	x := &extractor{
		src:      &source{fset: fset, files: []*ast.File{f}, pkg: pkg, info: info},
		funcs:    make(map[types.Object]*ast.FuncDecl),
		fnIndex:  make(map[string]*ast.FuncDecl),
		recvObjs: make(map[types.Object]bool),
	}
	x.index()
	w := &walker{x: x}
	want := map[string]string{
		"l.push":            "list.push",
		"first[int]":        "first",
		"first":             "first",
		"pair[string, int]": "pair",
		"tb.get":            "table.get",
	}
	got := make(map[string]string)
	ast.Inspect(x.fnIndex["use"].Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := types.ExprString(call.Fun)
		if decl := w.calleeDecl(call); decl != nil {
			got[name] = tableKeyOf(decl)
		} else {
			got[name] = "<opaque>"
		}
		return true
	})
	for call, key := range want {
		if got[call] != key {
			t.Errorf("call %s resolves to %s, want %s", call, got[call], key)
		}
	}
}
