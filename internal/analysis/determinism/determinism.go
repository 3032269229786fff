// Package determinism forbids nondeterminism sources in the simulation
// packages. The simulator's results must be bit-identical run to run (the
// kernel_determinism_test.go goldens depend on it, and so does every
// experiment comparison in EXPERIMENTS.md), which means simulation code may
// not observe wall-clock time, the process-global math/rand stream, map
// iteration order, or goroutine scheduling.
//
// Checked in the configured packages (DefaultSimPackages by default:
// internal/machine and every internal package it builds on, plus the
// workload generators and the result cache):
//
//   - calls into package time that read the wall clock or create timers
//     (time.Now, Since, Until, Sleep, After, Tick, NewTimer, NewTicker,
//     AfterFunc);
//   - any import of math/rand or math/rand/v2 — simulation randomness must
//     come from internal/rng, whose streams are seeded and stable;
//   - go statements — concurrency belongs in the drivers' fan-out
//     (internal/fanout), which runs whole (internally single-threaded)
//     simulations side by side;
//   - range over a map, unless the statement carries a //dsi:anyorder
//     directive asserting the iteration order cannot reach simulation state
//     or output (e.g. a soak journal's keys, sorted before writing).
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"dsisim/internal/analysis"
)

// timeBanned are the package-time functions that read the wall clock or
// introduce timer nondeterminism.
var timeBanned = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// DefaultSimPackages lists the packages whose results feed deterministic
// simulation state: the event kernel, the processors and their kernel
// runtime, the protocol engines, the network, the fault-injection plan, the
// machine assembly, the DSI policies, the hardware structures, memory and
// its golden values, the seeded random streams, the statistics and
// breakdowns, the coherence audit, the coherence-event sink (whose metrics
// land in Result.Blocks), the workload generators (whose construction and
// litmus programs must be bit-identical across runs given a seed), and the
// result cache (whose keys and stored payloads stand in for real
// simulations).
//
// Every internal package that internal/machine depends on is listed. The
// processor runtime in internal/cpu runs kernels on coroutines that the
// event loop switches to, so it needs no go statement either.
var DefaultSimPackages = []string{
	"dsisim/internal/event",
	"dsisim/internal/cpu",
	"dsisim/internal/proto",
	"dsisim/internal/netsim",
	"dsisim/internal/faultinj",
	"dsisim/internal/machine",
	"dsisim/internal/core",
	"dsisim/internal/directory",
	"dsisim/internal/cache",
	"dsisim/internal/blockmap",
	"dsisim/internal/mem",
	"dsisim/internal/rng",
	"dsisim/internal/stats",
	"dsisim/internal/check",
	"dsisim/internal/obs",
	"dsisim/internal/workload",
	"dsisim/internal/simcache",
}

// New returns the analyzer; simPkg reports whether a package (by import
// path) is simulation code subject to the check.
func New(simPkg func(path string) bool) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "determinism",
		Doc:  "simulation packages must not use wall-clock time, global math/rand, map iteration, or goroutines",
		Run:  func(pass *analysis.Pass) error { return run(pass, simPkg) },
	}
}

// Default returns the analyzer configured for DefaultSimPackages.
func Default() *analysis.Analyzer {
	set := make(map[string]bool, len(DefaultSimPackages))
	for _, p := range DefaultSimPackages {
		set[p] = true
	}
	return New(func(path string) bool { return set[path] })
}

func run(pass *analysis.Pass, simPkg func(string) bool) error {
	if !simPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"simulation package imports %s; use internal/rng for seeded, stable streams", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine spawned in simulation package; concurrency belongs in the drivers' fan-out (internal/fanout)")
			case *ast.RangeStmt:
				t := pass.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if pass.Directives.Anyorder(pass.Fset, n.Pos()) {
					return true
				}
				pass.Reportf(n.Pos(),
					"map iteration in simulation package; order can reach simulation state or output (sort keys, or annotate //dsi:anyorder with a justification)")
			case *ast.SelectorExpr:
				ident, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
				if !ok || pkgName.Imported().Path() != "time" {
					return true
				}
				if timeBanned[n.Sel.Name] {
					pass.Reportf(n.Pos(),
						"time.%s in simulation package; simulated time comes from the event queue", n.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
