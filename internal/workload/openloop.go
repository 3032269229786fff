package workload

import (
	"dsisim/internal/machine"
	"dsisim/internal/rng"
)

// OpenLoopParams scales the openloop generator: seeded open-loop request
// arrival against a shared working set, the many-clients-one-cache shape of
// a serving stack. Each processor replays a precomputed arrival schedule —
// requests separated by seeded gaps, each performing a few zipf-distributed
// reads and occasionally writing a block it owns — so load is injected at a
// rate independent of how fast the memory system keeps up (open loop), and
// slow protocols accumulate queueing rather than throttling the offered load.
type OpenLoopParams struct {
	WorkingSet      int     // shared blocks
	Epochs          int     // barrier-separated arrival epochs
	ArrivalsPerProc int     // requests per processor per epoch
	ReadsPerReq     int     // zipf-drawn reads per request
	WriteFrac       float64 // fraction of requests that also write an owned block
	MeanGap         int64   // mean inter-arrival compute gap (cycles)
	Skew            float64 // zipf exponent for read popularity
	Seed            uint64
}

// OpenLoopDefaults is the paper-scale preset.
func OpenLoopDefaults() OpenLoopParams {
	return OpenLoopParams{WorkingSet: 192, Epochs: 4, ArrivalsPerProc: 24, ReadsPerReq: 3,
		WriteFrac: 0.2, MeanGap: 30, Skew: 0.9, Seed: 0x0901}
}

// OpenLoopScaled returns the preset for a registry scale.
func OpenLoopScaled(s Scale) OpenLoopParams {
	p := OpenLoopDefaults()
	if s == ScaleTest {
		p.WorkingSet, p.Epochs, p.ArrivalsPerProc, p.ReadsPerReq, p.MeanGap = 32, 2, 6, 2, 8
	}
	return p
}

// openLoopReq is one precomputed request in a processor's arrival schedule.
type openLoopReq struct {
	gap    int64   // compute cycles before this request arrives
	reads  []int32 // blocks to read
	write  int32   // owned block to write, -1 for read-only requests
	newGen uint64  // generation the write publishes
}

// OpenLoop is the open-loop arrival generator. Blocks carry monotone
// generation counters written only by their span owner, so mid-epoch reads
// can assert an upper bound that holds under every memory model (a stale
// copy is always an older generation), while the post-barrier final check
// asserts the exact generation of every block.
type OpenLoop struct {
	P OpenLoopParams

	data     Array
	sched    [][][]openLoopReq // proc -> epoch -> requests
	epochMax [][]uint64        // epoch -> block -> max generation by epoch end
	finalGen []uint64          // block -> generation after the last epoch
}

// NewOpenLoop builds the workload.
func NewOpenLoop(p OpenLoopParams) *OpenLoop { return &OpenLoop{P: p} }

// Name implements Program.
func (w *OpenLoop) Name() string { return "openloop" }

// WarmupBarriers implements Program: the zero-fill of the working set is
// initialization.
func (w *OpenLoop) WarmupBarriers() int { return 1 }

// Setup implements Program: precompute every processor's arrival schedule
// and the per-epoch generation bounds from the seed.
func (w *OpenLoop) Setup(m *machine.Machine) {
	n := m.Config().Processors
	w.data = NewArrayInterleaved(m.Layout(), "ol.data", w.P.WorkingSet*4)
	r := rng.New(w.P.Seed)
	zt := newZipfTable(w.P.WorkingSet, w.P.Skew)

	gen := make([]uint64, w.P.WorkingSet)
	w.sched = make([][][]openLoopReq, n)
	for q := 0; q < n; q++ {
		w.sched[q] = make([][]openLoopReq, w.P.Epochs)
	}
	w.epochMax = make([][]uint64, w.P.Epochs)
	for e := 0; e < w.P.Epochs; e++ {
		for q := 0; q < n; q++ {
			lo, hi := span(w.P.WorkingSet, q, n)
			reqs := make([]openLoopReq, w.P.ArrivalsPerProc)
			for i := range reqs {
				req := &reqs[i]
				req.gap = 1
				if w.P.MeanGap > 0 {
					req.gap += int64(r.Intn(int(2 * w.P.MeanGap)))
				}
				req.reads = make([]int32, w.P.ReadsPerReq)
				for k := range req.reads {
					req.reads[k] = int32(zt.draw(r))
				}
				req.write = -1
				if hi > lo && r.Bool(w.P.WriteFrac) {
					b := lo + r.Intn(hi-lo)
					gen[b]++
					req.write = int32(b)
					req.newGen = gen[b]
				}
			}
			w.sched[q][e] = reqs
		}
		w.epochMax[e] = append([]uint64(nil), gen...)
	}
	w.finalGen = w.epochMax[w.P.Epochs-1]
}

// Kernel implements Program.
//
//dsi:hotpath
func (w *OpenLoop) Kernel(p *Proc) {
	lo, hi := span(w.P.WorkingSet, p.ID(), p.N())
	for b := lo; b < hi; b++ {
		p.WriteWord(w.data.At(b*4), 0)
	}
	p.Barrier() // end of initialization

	for e := 0; e < w.P.Epochs; e++ {
		max := w.epochMax[e]
		for i := range w.sched[p.ID()][e] {
			req := &w.sched[p.ID()][e][i]
			p.Compute(req.gap)
			for _, b := range req.reads {
				v := p.Read(w.data.At(int(b) * 4))
				if v.Word > max[b] {
					p.Failf("openloop: epoch %d block %d gen %d, max %d", e, b, v.Word, max[b])
				}
			}
			if req.write >= 0 {
				p.WriteWord(w.data.At(int(req.write)*4), req.newGen)
			}
		}
		p.Barrier() // epoch boundary
	}
	if p.ID() == 0 {
		for b := 0; b < w.P.WorkingSet; b++ {
			v := p.Read(w.data.At(b * 4))
			if v.Word != w.finalGen[b] {
				p.Failf("openloop: final block %d gen %d, want %d", b, v.Word, w.finalGen[b])
			}
		}
	}
}
