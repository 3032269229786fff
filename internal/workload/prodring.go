package workload

import (
	"dsisim/internal/machine"
	"dsisim/internal/rng"
)

// ProdRingParams scales the prodring generator, a pipelined generalization
// of the prodcons microbenchmark: every processor is simultaneously the
// producer of its own ring of Depth slots and a consumer of the rings of its
// FanOut upstream neighbours. Deeper rings let the producer run ahead;
// larger fan-out multiplies the read-sharing of each published slot.
type ProdRingParams struct {
	Depth      int    // slots per ring
	FanOut     int    // upstream producers each processor consumes
	Rounds     int    // produce/consume rounds, barrier-separated
	SlotBlocks int    // cache blocks per slot
	JitterMax  int64  // max per-round compute jitter (cycles), drawn per proc
	Seed       uint64 // seeds the jitter schedule
}

// ProdRingDefaults is the paper-scale preset.
func ProdRingDefaults() ProdRingParams {
	return ProdRingParams{Depth: 4, FanOut: 3, Rounds: 16, SlotBlocks: 2, JitterMax: 12, Seed: 0x9c1}
}

// ProdRingScaled returns the preset for a registry scale.
func ProdRingScaled(s Scale) ProdRingParams {
	p := ProdRingDefaults()
	if s == ScaleTest {
		p.Depth, p.FanOut, p.Rounds, p.SlotBlocks, p.JitterMax = 2, 2, 5, 1, 4
	}
	return p
}

// ProdRing is the producer-consumer ring generator. Each round t, processor
// q overwrites slot t%Depth of its own ring with t+1, a barrier publishes
// the round, and then q reads every slot of its FanOut upstream rings,
// asserting each slot still carries the value of the most recent round that
// wrote it. Writers keep dirtying the same Depth slots, so self-invalidation
// hints must distinguish the rewritten slot from the Depth-1 still-live ones.
type ProdRing struct {
	P ProdRingParams

	rings  Array     // proc-major: ring q occupies [q*Depth*SlotBlocks, ...)
	jitter [][]int64 // proc -> round -> compute jitter
	fan    int       // effective fan-out (clamped to n-1)
}

// NewProdRing builds the workload.
func NewProdRing(p ProdRingParams) *ProdRing { return &ProdRing{P: p} }

// Name implements Program.
func (w *ProdRing) Name() string { return "prodring" }

// WarmupBarriers implements Program: the zero-fill round is initialization.
func (w *ProdRing) WarmupBarriers() int { return 1 }

// Setup implements Program.
func (w *ProdRing) Setup(m *machine.Machine) {
	n := m.Config().Processors
	w.fan = w.P.FanOut
	if w.fan > n-1 {
		w.fan = n - 1
	}
	w.rings = NewArrayInterleaved(m.Layout(), "ring.slots", n*w.P.Depth*w.P.SlotBlocks*4)
	r := rng.New(w.P.Seed)
	w.jitter = make([][]int64, n)
	for q := 0; q < n; q++ {
		js := make([]int64, w.P.Rounds)
		for t := range js {
			if w.P.JitterMax > 0 {
				js[t] = int64(r.Intn(int(w.P.JitterMax) + 1))
			}
		}
		w.jitter[q] = js
	}
}

// slotWord returns the address of the first word of slot s of ring q,
// block k.
func (w *ProdRing) slotWord(q, s, k int) int {
	return ((q*w.P.Depth+s)*w.P.SlotBlocks + k) * 4
}

// Kernel implements Program.
//
//dsi:hotpath
func (w *ProdRing) Kernel(p *Proc) {
	q := p.ID()
	for s := 0; s < w.P.Depth; s++ {
		for k := 0; k < w.P.SlotBlocks; k++ {
			p.WriteWord(w.rings.At(w.slotWord(q, s, k)), 0)
		}
	}
	p.Barrier() // end of initialization

	for t := 0; t < w.P.Rounds; t++ {
		s := t % w.P.Depth
		for k := 0; k < w.P.SlotBlocks; k++ {
			p.WriteWord(w.rings.At(w.slotWord(q, s, k)), uint64(t+1))
		}
		p.Compute(w.jitter[q][t])
		p.Barrier() // round t published

		for up := 1; up <= w.fan; up++ {
			src := q - up
			if src < 0 {
				src += p.N()
			}
			for s2 := 0; s2 < w.P.Depth; s2++ {
				// The most recent round <= t that wrote slot s2, or none yet.
				var want uint64
				if t >= s2 {
					want = uint64(t-(t-s2)%w.P.Depth) + 1
				}
				for k := 0; k < w.P.SlotBlocks; k++ {
					p.Expect(w.rings.At(w.slotWord(src, s2, k)), want)
				}
			}
		}
		p.Barrier() // consumers done; producers may overwrite slot (t+1)%Depth
	}
}
