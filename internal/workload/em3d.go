package workload

import (
	"fmt"
	"sync"

	"dsisim/internal/machine"
	"dsisim/internal/rng"
)

// EM3DParams scales the EM3D kernel. NodesPerProc counts E nodes (and H
// nodes) owned by each processor.
type EM3DParams struct {
	NodesPerProc  int
	Degree        int
	PctRemote     float64 // fraction of dependencies crossing processors
	Iters         int
	ComputePerDep int64 // cycles charged per dependency edge
	Seed          uint64
}

// EM3DDefaults mirrors the paper's shape (192,000 nodes, degree 5, 5%
// remote) at simulation scale. The per-processor working set (node values
// plus per-edge weights) is sized to overflow the small cache class and fit
// the large one, preserving the paper's cache-size contrast for EM3D.
func EM3DDefaults() EM3DParams {
	return EM3DParams{NodesPerProc: 320, Degree: 5, PctRemote: 0.05, Iters: 5, ComputePerDep: 2, Seed: 0xe3d}
}

// EM3D is the bipartite-graph relaxation benchmark. Node values live at
// their owner (local allocation); every update happens at the home node,
// and remote processors re-read neighbor values each half-iteration.
type EM3D struct {
	P EM3DParams

	eVals, hVals []Array // per-proc value arrays
	// eWeights/hWeights are each processor's private per-edge coefficient
	// arrays — the streaming capacity traffic that dominates EM3D's misses
	// when the data set exceeds the cache.
	eWeights, hWeights []Array
	// eDeps[proc][node] lists (proc, index) H-dependencies; hDeps likewise
	// into E.
	eDeps, hDeps [][][2]int
}

// NewEM3D builds the workload with the given parameters.
func NewEM3D(p EM3DParams) *EM3D { return &EM3D{P: p} }

// Name implements Program.
func (w *EM3D) Name() string { return "em3d" }

// WarmupBarriers implements Program: the setup barrier ends initialization.
func (w *EM3D) WarmupBarriers() int { return 1 }

// Setup implements Program.
func (w *EM3D) Setup(m *machine.Machine) {
	n := m.Config().Processors
	l := m.Layout()
	w.eVals = make([]Array, n)
	w.hVals = make([]Array, n)
	w.eWeights = make([]Array, n)
	w.hWeights = make([]Array, n)
	edges := w.P.NodesPerProc * w.P.Degree
	for i := 0; i < n; i++ {
		w.eVals[i] = NewArrayLocal(l, fmt.Sprintf("em3d.e%d", i), w.P.NodesPerProc, i)
		w.hVals[i] = NewArrayLocal(l, fmt.Sprintf("em3d.h%d", i), w.P.NodesPerProc, i)
		w.eWeights[i] = NewArrayLocal(l, fmt.Sprintf("em3d.we%d", i), edges, i)
		w.hWeights[i] = NewArrayLocal(l, fmt.Sprintf("em3d.wh%d", i), edges, i)
	}
	w.eDeps, w.hDeps = em3dDeps(w.P, n)
}

// em3dDepKey identifies one generated dependency graph: the graph is a pure
// function of the parameters and the processor count.
type em3dDepKey struct {
	p EM3DParams
	n int
}

type em3dDepPair struct {
	e, h [][][2]int
}

// em3dDepCache shares generated dependency graphs across runs. An
// experiment grid simulates the same (workload, scale, processors) cell
// under many protocol labels; the reference stream is identical for all of
// them, so it is generated once and handed out read-only (the kernel never
// mutates it).
var em3dDepCache = struct {
	sync.Mutex
	m map[em3dDepKey]em3dDepPair
}{m: make(map[em3dDepKey]em3dDepPair)}

// em3dDeps returns the E- and H-phase dependency lists for (p, n), cached.
func em3dDeps(p EM3DParams, n int) (eDeps, hDeps [][][2]int) {
	key := em3dDepKey{p: p, n: n}
	em3dDepCache.Lock()
	defer em3dDepCache.Unlock()
	if d, ok := em3dDepCache.m[key]; ok {
		return d.e, d.h
	}
	rnd := rng.New(p.Seed)
	gen := func() [][][2]int {
		deps := make([][][2]int, n)
		for i := 0; i < n; i++ {
			deps[i] = make([][2]int, 0, p.NodesPerProc*p.Degree)
			for k := 0; k < p.NodesPerProc; k++ {
				for d := 0; d < p.Degree; d++ {
					owner := i
					if n > 1 && rnd.Bool(p.PctRemote) {
						owner = (i + 1 + rnd.Intn(n-1)) % n
					}
					deps[i] = append(deps[i], [2]int{owner, rnd.Intn(p.NodesPerProc)})
				}
			}
		}
		return deps
	}
	d := em3dDepPair{e: gen(), h: gen()}
	em3dDepCache.m[key] = d
	return d.e, d.h
}

// Kernel implements Program. Phase words: after E-phase of iteration t the
// E values carry word 2t+1; after the H-phase the H values carry 2t+2. Each
// phase asserts the freshness of everything it reads — an end-to-end
// coherence check of the protocol under test.
func (w *EM3D) Kernel(p *Proc) {
	id := p.ID()
	deg := w.P.Degree
	p.Barrier() // end of initialization

	phase := func(own, weights Array, deps [][2]int, readVals []Array, expect uint64, write uint64) {
		for k := 0; k < w.P.NodesPerProc; k++ {
			for d := 0; d < deg; d++ {
				dep := deps[k*deg+d]
				p.Expect(readVals[dep[0]].At(dep[1]), expect)
				p.Touch(weights.At(k*deg + d)) // private edge coefficient
			}
			p.Compute(w.P.ComputePerDep * int64(deg))
			p.WriteWord(own.At(k), write)
		}
	}
	for t := 0; t < w.P.Iters; t++ {
		tt := uint64(t)
		phase(w.eVals[id], w.eWeights[id], w.eDeps[id], w.hVals, 2*tt, 2*tt+1)
		p.Barrier()
		phase(w.hVals[id], w.hWeights[id], w.hDeps[id], w.eVals, 2*tt+1, 2*tt+2)
		p.Barrier()
	}
}
