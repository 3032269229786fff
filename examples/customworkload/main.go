// Custom workload: implement the dsisim.Program interface to simulate your
// own sharing pattern. This example builds two programs and compares the
// base protocol against DSI on each:
//
//   - workQueue: one producer enqueues tasks under a lock, all consumers
//     dequeue and process them.
//
//   - zipfFeed: a zipfian-popularity feed — a hot writer republishes the
//     most popular blocks each round while every processor reads blocks
//     drawn from the same skewed distribution (the CDN/feed-invalidation
//     analogy of DSI; the registry's "zipf" workload is the scaled-up,
//     parameterized version of this pattern — see docs/WORKLOADS.md §3).
//
//     go run ./examples/customworkload
package main

import (
	"fmt"
	"log"
	"math"

	"dsisim"
)

// workQueue is a lock-protected task queue: head/tail indices and a task
// array, all in simulated shared memory.
type workQueue struct {
	tasks int

	lock  dsisim.Region
	meta  dsisim.Region // word 0 of block 0: next task index
	items dsisim.Region
}

// Name implements dsisim.Program.
func (w *workQueue) Name() string { return "workqueue" }

// WarmupBarriers implements dsisim.Program.
func (w *workQueue) WarmupBarriers() int { return 1 }

// Setup implements dsisim.Program: allocate the queue in simulated memory.
func (w *workQueue) Setup(m *dsisim.Machine) {
	l := m.Layout()
	w.lock = l.AllocInterleaved("wq.lock", dsisim.BlockSize)
	w.meta = l.AllocInterleaved("wq.meta", dsisim.BlockSize)
	w.items = l.AllocInterleaved("wq.items", uint64(w.tasks)*dsisim.BlockSize)
}

// Kernel implements dsisim.Program: processor 0 publishes the tasks; then
// everyone races to claim and process them.
func (w *workQueue) Kernel(p *dsisim.Proc) {
	if p.ID() == 0 {
		for i := 0; i < w.tasks; i++ {
			p.WriteWord(w.items.Addr(uint64(i)*dsisim.BlockSize), uint64(i+1))
		}
	}
	p.Barrier() // publication visible; end of warm-up

	claimed := 0
	for {
		p.Lock(w.lock.Addr(0))
		next := p.Read(w.meta.Addr(0)).Word
		if next < uint64(w.tasks) {
			p.WriteWord(w.meta.Addr(0), next+1)
		}
		p.Unlock(w.lock.Addr(0))
		if next >= uint64(w.tasks) {
			break
		}
		// Process the claimed task: read its payload, compute on it.
		v := p.Read(w.items.Addr(next * dsisim.BlockSize))
		if v.Word != next+1 {
			p.Failf("task %d payload %d", next, v.Word)
		}
		p.Compute(200)
		claimed++
	}
	p.Barrier()
}

// zipfFeed is a zipfian-popularity feed: blocks are "articles" whose read
// popularity follows rank^-skew. Processor 0 is the hot writer — each round
// it republishes the top few articles — and every processor (writer
// included) reads articles sampled from the skewed distribution. Reads
// concentrate on exactly the blocks the writer keeps dirtying, so the
// invalidation traffic DSI targets dominates; the example is deterministic
// because sampling uses a fixed-seed splitmix64 stream per processor.
type zipfFeed struct {
	blocks int     // catalog size
	hot    int     // articles republished per round
	rounds int     // publish/read rounds, barrier-separated
	reads  int     // zipf-sampled reads per processor per round
	skew   float64 // zipf exponent
	seed   uint64
	feed   dsisim.Region
	cdf    []float64
}

// Name implements dsisim.Program.
func (z *zipfFeed) Name() string { return "zipffeed" }

// WarmupBarriers implements dsisim.Program.
func (z *zipfFeed) WarmupBarriers() int { return 1 }

// Setup implements dsisim.Program: allocate the catalog and precompute the
// popularity CDF (rank r gets weight (r+1)^-skew).
func (z *zipfFeed) Setup(m *dsisim.Machine) {
	z.feed = m.Layout().AllocInterleaved("feed", uint64(z.blocks)*dsisim.BlockSize)
	z.cdf = make([]float64, z.blocks)
	sum := 0.0
	for r := 0; r < z.blocks; r++ {
		sum += math.Pow(float64(r+1), -z.skew)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
}

// Kernel implements dsisim.Program.
func (z *zipfFeed) Kernel(p *dsisim.Proc) {
	rng := splitmix{state: z.seed ^ uint64(p.ID())*0x9e3779b97f4a7c15}
	if p.ID() == 0 {
		for b := 0; b < z.blocks; b++ {
			p.WriteWord(z.feed.Addr(uint64(b)*dsisim.BlockSize), 1)
		}
	}
	p.Barrier() // catalog published; end of warm-up

	for round := 0; round < z.rounds; round++ {
		if p.ID() == 0 {
			// Republish the hottest articles: new version, same blocks.
			for b := 0; b < z.hot; b++ {
				addr := z.feed.Addr(uint64(b) * dsisim.BlockSize)
				p.WriteWord(addr, p.Read(addr).Word+1)
			}
		}
		for i := 0; i < z.reads; i++ {
			b := z.sample(&rng)
			v := p.Read(z.feed.Addr(uint64(b) * dsisim.BlockSize))
			if v.Word < 1 {
				p.Failf("article %d never published (read %d)", b, v.Word)
			}
			p.Compute(20)
		}
		p.Barrier()
	}
}

// sample draws a block index from the precomputed zipf CDF.
func (z *zipfFeed) sample(r *splitmix) int {
	u := float64(r.next()>>11) / float64(1<<53)
	lo, hi := 0, z.blocks-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splitmix is a tiny deterministic PRNG so the example needs no imports
// beyond the standard library (simulation code proper uses internal/rng).
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func main() {
	programs := []dsisim.Program{
		&workQueue{tasks: 64},
		&zipfFeed{blocks: 64, hot: 4, rounds: 6, reads: 24, skew: 1.1, seed: 0x5eed},
	}
	for _, prog := range programs {
		fmt.Printf("%s:\n", prog.Name())
		for _, protocol := range []dsisim.Protocol{dsisim.SC, dsisim.V, dsisim.WDSI} {
			res, err := dsisim.RunProgram(dsisim.Config{
				Protocol:   protocol,
				Processors: 8,
			}, prog)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-5s: %7d cycles, %4d messages, %3d invalidation-class\n",
				protocol, res.ExecTime, res.Messages.Total(), res.Messages.Invalidation())
		}
	}
}
