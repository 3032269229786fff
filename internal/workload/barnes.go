package workload

import (
	"dsisim/internal/machine"
	"dsisim/internal/rng"
)

// BarnesParams scales the Barnes-Hut N-body kernel.
type BarnesParams struct {
	Bodies       int
	Cells        int // tree cells, each with its own lock
	Iters        int
	CellsPerBody int // tree cells visited per body during force computation
	BaseCompute  int64
	Seed         uint64
}

// BarnesDefaults mirrors the paper's 2048-body run at simulation scale.
func BarnesDefaults() BarnesParams {
	return BarnesParams{Bodies: 384, Cells: 64, Iters: 3, CellsPerBody: 12, BaseCompute: 8, Seed: 0xba52}
}

// Barnes approximates the Barnes-Hut phases that drive its memory behavior:
// a tree-build phase inserting bodies into shared cells under fine-grain
// locks, a force phase reading a body-dependent set of cells and other
// bodies (read-mostly sharing, deliberately imbalanced work), and an update
// phase rewriting the owned bodies. The paper observes that synchronization
// (fine-grain locking plus imbalance) dominates Barnes at this scale and
// neither weak consistency nor DSI helps much — the kernel preserves that.
type Barnes struct {
	P BarnesParams

	pos, force Array
	cells      Array
	cellLocks  Locks
	// visit[t][b] lists the cells body b reads in iteration t's force
	// phase; cost[b] is the body's (imbalanced) compute cost.
	visit [][][]int
	cost  []int64
}

// NewBarnes builds the workload.
func NewBarnes(p BarnesParams) *Barnes { return &Barnes{P: p} }

// Name implements Program.
func (w *Barnes) Name() string { return "barnes" }

// WarmupBarriers implements Program.
func (w *Barnes) WarmupBarriers() int { return 1 }

// Setup implements Program.
func (w *Barnes) Setup(m *machine.Machine) {
	l := m.Layout()
	w.pos = NewArrayInterleaved(l, "barnes.pos", w.P.Bodies)
	w.force = NewArrayInterleaved(l, "barnes.force", w.P.Bodies)
	w.cells = NewArrayInterleaved(l, "barnes.cells", w.P.Cells)
	w.cellLocks = NewLocks(l, "barnes.locks", w.P.Cells)
	rnd := rng.New(w.P.Seed)
	w.visit = make([][][]int, w.P.Iters)
	for t := range w.visit {
		w.visit[t] = make([][]int, w.P.Bodies)
		for b := range w.visit[t] {
			vs := make([]int, w.P.CellsPerBody)
			for i := range vs {
				vs[i] = rnd.Intn(w.P.Cells)
			}
			w.visit[t][b] = vs
		}
	}
	w.cost = make([]int64, w.P.Bodies)
	for b := range w.cost {
		// Skewed per-body cost: contiguous ownership spans then inherit
		// different totals, reproducing the load imbalance the paper notes.
		w.cost[b] = w.P.BaseCompute * int64(1+rnd.Intn(8))
	}
}

// Kernel implements Program.
func (w *Barnes) Kernel(p *Proc) {
	lo, hi := span(w.P.Bodies, p.ID(), p.N())
	// Initialization: write owned bodies (generation 0).
	for b := lo; b < hi; b++ {
		p.WriteWord(w.pos.At(b), 0)
		p.WriteWord(w.force.At(b), 0)
	}
	p.Barrier() // end of initialization

	for t := 0; t < w.P.Iters; t++ {
		// Tree build: insert each owned body into a cell under its lock.
		for b := lo; b < hi; b++ {
			cell := w.visit[t][b][0]
			p.Lock(w.cellLocks.Addr(cell))
			v := p.Read(w.cells.At(cell))
			p.WriteWord(w.cells.At(cell), v.Word+1)
			p.Unlock(w.cellLocks.Addr(cell))
		}
		p.Barrier()
		// Force computation: read the visit set and neighboring bodies.
		for b := lo; b < hi; b++ {
			for _, cell := range w.visit[t][b] {
				p.Touch(w.cells.At(cell))
			}
			// Read a few other bodies' positions (previous generation).
			for k := 1; k <= 3; k++ {
				nb := (b + k*17) % w.P.Bodies
				p.Expect(w.pos.At(nb), uint64(t))
			}
			p.Compute(w.cost[b])
			p.WriteWord(w.force.At(b), uint64(t+1))
		}
		p.Barrier()
		// Update: advance owned bodies to the next generation.
		for b := lo; b < hi; b++ {
			p.Expect(w.force.At(b), uint64(t+1))
			p.WriteWord(w.pos.At(b), uint64(t+1))
		}
		p.Barrier()
	}
	// Tree-build audit: cell insert counts must sum to Bodies*Iters.
	if p.ID() == 0 {
		var sum uint64
		for c := 0; c < w.P.Cells; c++ {
			sum += p.Read(w.cells.At(c)).Word
		}
		if sum != uint64(w.P.Bodies*w.P.Iters) {
			p.Failf("barnes: cell inserts %d, want %d", sum, w.P.Bodies*w.P.Iters)
		}
	}
}
