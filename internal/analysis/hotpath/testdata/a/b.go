// Second file of the hotpath fixture: the annotation harvest and the checks
// must work across files of one package — methods with value receivers
// declared here over types from a.go, and hot functions calling a.go's
// helpers.
package a

import (
	"fmt"
	"sync/atomic"

	"dsisim/internal/cpu"
)

type table struct {
	m    map[int]rec
	name string
}

//dsi:hotpath
func (t table) lookupHot(k int) rec {
	return t.m[k] // want `map index in hot path`
}

//dsi:hotpath
func (t table) describeHot() {
	fmt.Printf("%s: %d\n", t.name, len(t.m)) // want `fmt\.Printf call in hot path`
}

func (t table) lookupCold(k int) rec { // ok: unannotated methods are not checked
	return t.m[k]
}

//dsi:hotpath
func (t *table) sumHot() int {
	total := 0
	for _, r := range t.m { // want `range over map in hot path`
		total += r.a
	}
	return total
}

//dsi:hotpath
func crossFileBox(r rec) {
	sinkAny(r)   // want `passing a\.rec as any boxes in hot path`
	sinkPtr(&r)  // ok: no interface involved
	variadic(&r) // ok: pointer-shaped variadic element
}

//dsi:hotpath
func crossFileColdExempt(t *table, k int) {
	if t.m == nil {
		fail("no table %d", k) // ok: coldpath call, arguments exempt
	}
}

//dsi:hotpath
func crossPkgColdExempt(p *cpu.Proc, v uint64) {
	// cpu.Proc.Failf is annotated //dsi:coldpath in its own package, which
	// this package's directive harvest cannot see; the ColdFuncs registry
	// must exempt the call (and its boxing variadic arguments) anyway.
	if v != 0 {
		p.Failf("val %d", v) // ok: registered cross-package coldpath
	}
	// Only the registered function is exempt: another cross-package call
	// that takes an interface still boxes its argument on every call.
	var last atomic.Value
	last.Store(v) // want `passing uint64 as any boxes in hot path`
}
