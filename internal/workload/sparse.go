package workload

import "dsisim/internal/machine"

// SparseParams scales the Sparse iterative solver.
type SparseParams struct {
	N     int // unknowns (shared vector length)
	Iters int
	// Passes is how many times each processor re-traverses the shared
	// vector per iteration (the dense matrix-vector product reads x once
	// per owned row; passes batch that re-traversal). Re-traversal is what
	// makes the finite FIFO fatal in Figure 5: blocks displaced from the
	// buffer mid-iteration miss again on the next pass.
	Passes        int
	ComputePerRow int64 // cycles of matrix arithmetic per element
}

// SparseDefaults mirrors the paper's 512x512 dense input at simulation
// scale.
func SparseDefaults() SparseParams {
	return SparseParams{N: 512, Iters: 5, Passes: 4, ComputePerRow: 3}
}

// Sparse is the locally-written iterative solver: each iteration every
// processor reads the entire shared solution vector x (to multiply its
// block of matrix rows, charged as compute — the matrix itself is private),
// then overwrites its own slice of x with the new values.
//
// This is the paper's strongest case for DSI: every x block is read by all
// 32 processors and rewritten by its owner each iteration, so the base
// protocol pays a full invalidation fan-out per block per iteration, all of
// which self-invalidation removes.
type Sparse struct {
	P SparseParams
	x Array
}

// NewSparse builds the workload.
func NewSparse(p SparseParams) *Sparse { return &Sparse{P: p} }

// Name implements Program.
func (w *Sparse) Name() string { return "sparse" }

// WarmupBarriers implements Program: initialization writes x once.
func (w *Sparse) WarmupBarriers() int { return 1 }

// Setup implements Program.
func (w *Sparse) Setup(m *machine.Machine) {
	w.x = NewArrayInterleaved(m.Layout(), "sparse.x", w.P.N)
}

// Kernel implements Program. Word semantics: x[j] carries the iteration
// count after which it was produced; all reads in iteration t expect t.
func (w *Sparse) Kernel(p *Proc) {
	lo, hi := span(w.P.N, p.ID(), p.N())
	// Initialization: each owner writes its slice (iteration word 0).
	for j := lo; j < hi; j++ {
		p.WriteWord(w.x.At(j), 0)
	}
	p.Barrier() // end of initialization

	passes := w.P.Passes
	if passes <= 0 {
		passes = 1
	}
	for t := 0; t < w.P.Iters; t++ {
		// Multiply owned rows: each batch of rows re-reads the whole
		// vector.
		for pass := 0; pass < passes; pass++ {
			for j := 0; j < w.P.N; j++ {
				p.Expect(w.x.At(j), uint64(t))
				p.Compute(w.P.ComputePerRow)
			}
		}
		p.Barrier()
		// Update owned slice with the new values.
		for j := lo; j < hi; j++ {
			p.WriteWord(w.x.At(j), uint64(t+1))
		}
		p.Barrier()
	}
}
