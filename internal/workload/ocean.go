package workload

import "dsisim/internal/machine"

// OceanParams scales the Ocean grid relaxation.
type OceanParams struct {
	N              int // grid is N x N interior points
	Iters          int
	ComputePerCell int64
	// RelaxedRounds adds the unsynchronized sharing the paper observes in
	// Ocean ("un-synchronized accesses to shared data"): per iteration,
	// this many rounds of boundary-row exchange run with no barrier in
	// between, so a neighbor's read downgrades the owner's fresh exclusive
	// copy and the owner's next write pays a full invalidation — a conflict
	// DSI cannot remove (there is no synchronization point between the
	// accesses for self-invalidation to run at), while the weak-consistency
	// write buffer hides it.
	RelaxedRounds int
}

// OceanDefaults mirrors the paper's 98x98 input at simulation scale.
func OceanDefaults() OceanParams {
	return OceanParams{N: 64, Iters: 3, ComputePerCell: 3, RelaxedRounds: 8}
}

// Ocean is the red-black grid relaxation: rows are block-partitioned, each
// sweep reads the rows adjacent to the partition boundary from the
// neighboring processors, and a lock protects the global residual.
type Ocean struct {
	P OceanParams

	grid     Array // N*N row-major
	residual Array
	lock     Locks
}

// NewOcean builds the workload.
func NewOcean(p OceanParams) *Ocean { return &Ocean{P: p} }

// Name implements Program.
func (w *Ocean) Name() string { return "ocean" }

// WarmupBarriers implements Program.
func (w *Ocean) WarmupBarriers() int { return 1 }

// Setup implements Program.
func (w *Ocean) Setup(m *machine.Machine) {
	l := m.Layout()
	w.grid = NewArrayBlocked(l, "ocean.grid", w.P.N*w.P.N)
	w.residual = NewArrayInterleaved(l, "ocean.residual", 1)
	w.lock = NewLocks(l, "ocean.lock", 1)
}

func (w *Ocean) at(r, c int) int { return r*w.P.N + c }

// Kernel implements Program. Red-black sweeps: cells with (r+c) even update
// in the red phase reading black neighbors, and vice versa, with barriers
// between phases. The grid word carries the sweep count for the producing
// color, asserted where the barrier guarantees freshness.
func (w *Ocean) Kernel(p *Proc) {
	n := w.P.N
	rlo, rhi := span(n, p.ID(), p.N())
	// Initialization: each owner zeroes its rows.
	for r := rlo; r < rhi; r++ {
		for c := 0; c < n; c++ {
			p.WriteWord(w.grid.At(w.at(r, c)), 0)
		}
	}
	p.Barrier() // end of initialization

	sweep := func(color int, write uint64) {
		for r := rlo; r < rhi; r++ {
			for c := 0; c < n; c++ {
				if (r+c)%2 != color {
					continue
				}
				for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
					nr, nc := r+d[0], c+d[1]
					if nr < 0 || nr >= n || nc < 0 || nc >= n {
						continue
					}
					p.Read(w.grid.At(w.at(nr, nc)))
				}
				p.Compute(w.P.ComputePerCell)
				p.WriteWord(w.grid.At(w.at(r, c)), write)
			}
		}
	}
	for t := 0; t < w.P.Iters; t++ {
		sweep(0, uint64(2*t+1))
		p.Barrier()
		sweep(1, uint64(2*t+2))
		p.Barrier()
		// Unsynchronized boundary exchange: several rounds of read-neighbor
		// then rewrite-own-edge with no barrier between rounds. Values may
		// be old or new (no assertions); the point is the conflict timing —
		// each rewrite must invalidate the neighbor's fresh copy inside the
		// phase, where self-invalidation (which runs at sync points) cannot
		// have removed it. A processor that owns no rows (more processors
		// than rows) has no edge to exchange.
		for round := 0; round < w.P.RelaxedRounds && rlo < rhi; round++ {
			if rhi < n {
				for c := 0; c < n; c++ {
					p.Read(w.grid.At(w.at(rhi, c)))
				}
			}
			if rlo > 0 {
				for c := 0; c < n; c++ {
					p.Read(w.grid.At(w.at(rlo-1, c)))
				}
			}
			for c := 0; c < n; c++ {
				p.WriteWord(w.grid.At(w.at(rlo, c)), uint64(2*t+2))
				p.WriteWord(w.grid.At(w.at(rhi-1, c)), uint64(2*t+2))
			}
			p.Compute(w.P.ComputePerCell * int64(n/2))
		}
		// Global residual under a lock.
		p.Lock(w.lock.Addr(0))
		v := p.Read(w.residual.At(0))
		p.WriteWord(w.residual.At(0), v.Word+1)
		p.Unlock(w.lock.Addr(0))
		p.Barrier()
	}
	if p.ID() == 0 {
		v := p.Read(w.residual.At(0))
		p.Assert(v.Word == uint64(p.N()*w.P.Iters),
			"ocean: residual %d, want %d", v.Word, p.N()*w.P.Iters)
	}
}
