package workload

// The traffic-shaped generators model production serving stacks rather than
// scientific kernels: zipfian hot-block popularity (zipf), pipelined
// producer-consumer rings (prodring), a contended lock convoy (lockconvoy),
// and open-loop request arrival from many simulated clients (openloop).
// They exercise exactly the regime the paper's bet is about — predicting
// when a block's sharing epoch ends — on the sharing patterns of a
// hot-writer/many-readers cache-invalidation workload. Every generator is
// constructed deterministically from a single seed via internal/rng: the
// per-processor operation streams are precomputed in Setup, so two runs of
// the same parameters are bit-identical and the kernels replay flat slices
// without allocating. docs/WORKLOADS.md documents each generator's sharing
// structure and which protocol should win on it.

import (
	"math"

	"dsisim/internal/machine"
	"dsisim/internal/rng"
)

// zipfTable samples ranks with zipfian popularity: rank r is drawn with
// probability proportional to 1/(r+1)^skew. The cumulative table is built
// once per Setup; each draw is one RNG step plus a binary search.
type zipfTable struct {
	cum []float64 // cum[i] = total weight of ranks 0..i
}

// newZipfTable builds the cumulative weight table for n ranks.
func newZipfTable(n int, skew float64) zipfTable {
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), skew)
		cum[i] = total
	}
	return zipfTable{cum: cum}
}

// draw returns a rank in [0, len(cum)).
//
//dsi:hotpath
func (z zipfTable) draw(r *rng.RNG) int {
	x := r.Float64() * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ZipfParams scales the zipf generator — the CDN/feed-invalidation analogy
// of DSI: a small set of hot writers rewrites popular blocks each round, and
// every processor re-reads blocks drawn from a zipfian popularity
// distribution. The base protocol pays an invalidation fan-out per hot
// block per round; self-invalidation predicts the epoch end at the barrier.
type ZipfParams struct {
	Blocks          int     // shared working set (one word used per block)
	Rounds          int     // write/read rounds, barrier-separated
	ReadsPerProc    int     // zipf-drawn reads per processor per round
	WritesPerWriter int     // zipf-drawn block updates per hot writer per round
	HotWriterFrac   float64 // fraction of processors that write (>= 1 writer)
	Skew            float64 // zipf exponent; higher = hotter head
	ComputePerOp    int64   // cycles of request processing per read
	Seed            uint64
}

// ZipfDefaults is the paper-scale preset: a working set that fits the large
// cache class with a hot head that every processor re-reads each round.
func ZipfDefaults() ZipfParams {
	return ZipfParams{Blocks: 256, Rounds: 8, ReadsPerProc: 160, WritesPerWriter: 40,
		HotWriterFrac: 0.125, Skew: 1.1, ComputePerOp: 2, Seed: 0x21bf}
}

// ZipfScaled returns the preset for a registry scale.
func ZipfScaled(s Scale) ZipfParams {
	p := ZipfDefaults()
	if s == ScaleTest {
		p.Blocks, p.Rounds, p.ReadsPerProc, p.WritesPerWriter = 32, 3, 24, 8
	}
	return p
}

// Zipf is the hot-writer/many-readers generator. Each round, the writer set
// rewrites a zipf-weighted selection of blocks (exactly one writer per block
// per round), a barrier publishes the updates, and then every processor
// performs its zipf-drawn reads, asserting that each block carries the value
// of the round that last wrote it — an end-to-end check that invalidation
// (or self-invalidation) actually happened.
type Zipf struct {
	P ZipfParams

	data   Array
	writes [][][]int32 // proc -> round -> blocks to rewrite (nil for readers)
	reads  [][][]int32 // proc -> round -> blocks to read
	expect [][]uint64  // round -> block -> expected word after the round's writes
}

// NewZipf builds the workload.
func NewZipf(p ZipfParams) *Zipf { return &Zipf{P: p} }

// Name implements Program.
func (w *Zipf) Name() string { return "zipf" }

// WarmupBarriers implements Program: the zero-fill of the working set is
// initialization.
func (w *Zipf) WarmupBarriers() int { return 1 }

// Setup implements Program: allocate the working set and precompute every
// processor's operation stream and the reference values from the seed.
func (w *Zipf) Setup(m *machine.Machine) {
	n := m.Config().Processors
	w.data = NewArrayInterleaved(m.Layout(), "zipf.data", w.P.Blocks*4)

	writers := int(w.P.HotWriterFrac*float64(n) + 0.5)
	if writers < 1 {
		writers = 1
	}
	if writers > n {
		writers = n
	}
	r := rng.New(w.P.Seed)
	zt := newZipfTable(w.P.Blocks, w.P.Skew)

	cur := make([]uint64, w.P.Blocks)
	owner := make([]int, w.P.Blocks) // this round's writer, -1 = unwritten
	w.writes = make([][][]int32, n)
	w.reads = make([][][]int32, n)
	w.expect = make([][]uint64, w.P.Rounds)
	for p := 0; p < writers; p++ {
		w.writes[p] = make([][]int32, w.P.Rounds)
	}
	for p := 0; p < n; p++ {
		w.reads[p] = make([][]int32, w.P.Rounds)
	}
	for t := 0; t < w.P.Rounds; t++ {
		for b := range owner {
			owner[b] = -1
		}
		for p := 0; p < writers; p++ {
			list := make([]int32, 0, w.P.WritesPerWriter)
			for k := 0; k < w.P.WritesPerWriter; k++ {
				b := zt.draw(r)
				if owner[b] != -1 {
					continue // one writer per block per round
				}
				owner[b] = p
				cur[b] = uint64(t + 1)
				list = append(list, int32(b))
			}
			w.writes[p][t] = list
		}
		w.expect[t] = append([]uint64(nil), cur...)
		for p := 0; p < n; p++ {
			list := make([]int32, w.P.ReadsPerProc)
			for k := range list {
				list[k] = int32(zt.draw(r))
			}
			w.reads[p][t] = list
		}
	}
}

// Kernel implements Program.
//
//dsi:hotpath
func (w *Zipf) Kernel(p *Proc) {
	lo, hi := span(w.P.Blocks, p.ID(), p.N())
	for j := lo; j < hi; j++ {
		p.WriteWord(w.data.At(j*4), 0)
	}
	p.Barrier() // end of initialization

	for t := 0; t < w.P.Rounds; t++ {
		if wl := w.writes[p.ID()]; wl != nil {
			for _, b := range wl[t] {
				p.WriteWord(w.data.At(int(b)*4), uint64(t+1))
			}
		}
		p.Barrier() // updates published
		exp := w.expect[t]
		for _, b := range w.reads[p.ID()][t] {
			p.Expect(w.data.At(int(b)*4), exp[b])
			p.Compute(w.P.ComputePerOp)
		}
		p.Barrier() // round done; next round's writers may overwrite
	}
}
