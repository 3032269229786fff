package workload

import (
	"fmt"

	"dsisim/internal/machine"
)

// TomcatvParams scales the Tomcatv mesh-generation kernel.
type TomcatvParams struct {
	N              int // mesh is N x N
	Arrays         int // distinct row-partitioned arrays (the SPEC code uses 7)
	Iters          int
	ComputePerCell int64
}

// TomcatvDefaults mirrors the paper's 512x512 input at simulation scale,
// chosen so the per-processor working set overflows the small cache class
// but fits the large one (the calibration is recorded in EXPERIMENTS.md).
func TomcatvDefaults() TomcatvParams {
	return TomcatvParams{N: 192, Arrays: 7, Iters: 5, ComputePerCell: 4}
}

// Tomcatv is the vectorized mesh generator: several N x N arrays are
// row-partitioned; each iteration sweeps the owned rows, reading the rows
// just across each partition boundary from the previous generation of the
// mesh (double-buffered, so the exchange is race-free), then reduces a
// global residual under a lock. Communication is limited to boundary rows;
// most of the traffic is local capacity misses once the arrays exceed the
// cache.
type Tomcatv struct {
	P TomcatvParams

	mesh     [2]Array // double-buffered mesh generations
	work     []Array  // private working arrays (capacity traffic)
	residual Array
	lock     Locks
}

// NewTomcatv builds the workload.
func NewTomcatv(p TomcatvParams) *Tomcatv { return &Tomcatv{P: p} }

// Name implements Program.
func (w *Tomcatv) Name() string { return "tomcatv" }

// WarmupBarriers implements Program.
func (w *Tomcatv) WarmupBarriers() int { return 1 }

// Setup implements Program.
func (w *Tomcatv) Setup(m *machine.Machine) {
	l := m.Layout()
	w.mesh[0] = NewArrayBlocked(l, "tomcatv.mesh0", w.P.N*w.P.N)
	w.mesh[1] = NewArrayBlocked(l, "tomcatv.mesh1", w.P.N*w.P.N)
	nwork := w.P.Arrays - 2
	if nwork < 0 {
		nwork = 0
	}
	w.work = make([]Array, nwork)
	for i := range w.work {
		w.work[i] = NewArrayBlocked(l, fmt.Sprintf("tomcatv.w%d", i), w.P.N*w.P.N)
	}
	w.residual = NewArrayInterleaved(l, "tomcatv.residual", 1)
	w.lock = NewLocks(l, "tomcatv.lock", 1)
}

// Kernel implements Program. Mesh words carry the generation count;
// boundary-row reads assert the previous generation, which the barrier and
// double buffering guarantee.
func (w *Tomcatv) Kernel(p *Proc) {
	n := w.P.N
	rlo, rhi := span(n, p.ID(), p.N())
	at := func(r, c int) int { return r*n + c }
	// Initialization: generation 0 of the mesh.
	for r := rlo; r < rhi; r++ {
		for c := 0; c < n; c++ {
			p.WriteWord(w.mesh[0].At(at(r, c)), 0)
		}
	}
	p.Barrier() // end of initialization

	for t := 0; t < w.P.Iters; t++ {
		cur, nxt := w.mesh[t%2], w.mesh[(t+1)%2]
		// Boundary rows of the current generation from the neighbors.
		if rlo > 0 {
			for c := 0; c < n; c++ {
				p.Expect(cur.At(at(rlo-1, c)), uint64(t))
			}
		}
		if rhi < n {
			for c := 0; c < n; c++ {
				p.Expect(cur.At(at(rhi, c)), uint64(t))
			}
		}
		// Sweep the owned rows: read current mesh and working arrays,
		// write the next generation.
		for r := rlo; r < rhi; r++ {
			for c := 0; c < n; c++ {
				p.Touch(cur.At(at(r, c)))
				for _, wa := range w.work {
					p.Touch(wa.At(at(r, c)))
				}
				p.Compute(w.P.ComputePerCell)
				p.WriteWord(nxt.At(at(r, c)), uint64(t+1))
			}
		}
		// Residual reduction under the global lock.
		p.Lock(w.lock.Addr(0))
		v := p.Read(w.residual.At(0))
		p.WriteWord(w.residual.At(0), v.Word+1)
		p.Unlock(w.lock.Addr(0))
		p.Barrier()
	}
	if p.ID() == 0 {
		v := p.Read(w.residual.At(0))
		if v.Word != uint64(p.N()*w.P.Iters) {
			p.Failf("tomcatv: residual %d, want %d", v.Word, p.N()*w.P.Iters)
		}
	}
}
