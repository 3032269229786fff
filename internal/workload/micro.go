package workload

import "dsisim/internal/machine"

// The microbenchmarks isolate one sharing pattern each. They are used by
// tests, examples, and the ablation benchmarks.

// ProducerConsumer: processor 0 writes a buffer each round; everyone else
// reads it after a barrier. Maximal invalidation fan-out per round.
type ProducerConsumer struct {
	Blocks int
	Rounds int
	data   Array
}

// Name implements Program.
func (w *ProducerConsumer) Name() string { return "prodcons" }

// WarmupBarriers implements Program.
func (w *ProducerConsumer) WarmupBarriers() int { return 0 }

// Setup implements Program.
func (w *ProducerConsumer) Setup(m *machine.Machine) {
	w.data = NewArrayInterleaved(m.Layout(), "pc.data", w.Blocks*4)
}

// Kernel implements Program.
func (w *ProducerConsumer) Kernel(p *Proc) {
	for t := 0; t < w.Rounds; t++ {
		if p.ID() == 0 {
			for b := 0; b < w.Blocks; b++ {
				p.WriteWord(w.data.At(b*4), uint64(t+1))
			}
		}
		p.Barrier()
		if p.ID() != 0 {
			for b := 0; b < w.Blocks; b++ {
				p.Expect(w.data.At(b*4), uint64(t+1))
			}
		}
		p.Barrier()
	}
}

// Migratory: every processor in turn reads-modifies-writes the same set of
// blocks, the classic migratory pattern DSI marks via exclusive grants.
type Migratory struct {
	Blocks int
	Rounds int
	data   Array
}

// Name implements Program.
func (w *Migratory) Name() string { return "migratory" }

// WarmupBarriers implements Program.
func (w *Migratory) WarmupBarriers() int { return 0 }

// Setup implements Program.
func (w *Migratory) Setup(m *machine.Machine) {
	w.data = NewArrayInterleaved(m.Layout(), "mig.data", w.Blocks*4)
}

// Kernel implements Program.
func (w *Migratory) Kernel(p *Proc) {
	for t := 0; t < w.Rounds; t++ {
		for turn := 0; turn < p.N(); turn++ {
			if turn == p.ID() {
				for b := 0; b < w.Blocks; b++ {
					expect := uint64(t*p.N() + turn)
					p.Expect(w.data.At(b*4), expect)
					p.WriteWord(w.data.At(b*4), expect+1)
				}
			}
			p.Barrier()
		}
	}
}

// ReadShared: written once, then read repeatedly by everyone — coherence
// traffic only on first touch; DSI should leave it alone.
type ReadShared struct {
	Blocks int
	Rounds int
	data   Array
}

// Name implements Program.
func (w *ReadShared) Name() string { return "readshared" }

// WarmupBarriers implements Program: the write round and the first read
// round (whose first-touch misses recall the writer's exclusive copies) are
// both initialization.
func (w *ReadShared) WarmupBarriers() int { return 2 }

// Setup implements Program.
func (w *ReadShared) Setup(m *machine.Machine) {
	w.data = NewArrayInterleaved(m.Layout(), "rs.data", w.Blocks*4)
}

// Kernel implements Program.
func (w *ReadShared) Kernel(p *Proc) {
	if p.ID() == 0 {
		for b := 0; b < w.Blocks; b++ {
			p.WriteWord(w.data.At(b*4), 7)
		}
	}
	p.Barrier()
	for t := 0; t < w.Rounds; t++ {
		for b := 0; b < w.Blocks; b++ {
			p.Expect(w.data.At(b*4), 7)
		}
		p.Barrier()
	}
}

// LockContention: all processors hammer a small set of locks guarding
// shared counters.
type LockContention struct {
	Locks  int
	Rounds int
	lk     Locks
	ctr    Array
}

// Name implements Program.
func (w *LockContention) Name() string { return "locks" }

// WarmupBarriers implements Program.
func (w *LockContention) WarmupBarriers() int { return 0 }

// Setup implements Program.
func (w *LockContention) Setup(m *machine.Machine) {
	w.lk = NewLocks(m.Layout(), "lc.locks", w.Locks)
	w.ctr = NewArrayInterleaved(m.Layout(), "lc.ctr", w.Locks*4)
}

// Kernel implements Program.
func (w *LockContention) Kernel(p *Proc) {
	for t := 0; t < w.Rounds; t++ {
		i := (p.ID() + t) % w.Locks
		p.Lock(w.lk.Addr(i))
		v := p.Read(w.ctr.At(i * 4))
		p.WriteWord(w.ctr.At(i*4), v.Word+1)
		p.Unlock(w.lk.Addr(i))
		p.Compute(int64(20 + 5*p.ID()))
	}
	p.Barrier()
	if p.ID() == 0 {
		var sum uint64
		for i := 0; i < w.Locks; i++ {
			sum += p.Read(w.ctr.At(i * 4)).Word
		}
		if sum != uint64(p.N()*w.Rounds) {
			p.Failf("locks: sum %d, want %d", sum, p.N()*w.Rounds)
		}
	}
}

// FalseSharing: processors write disjoint words that share cache blocks,
// producing invalidation ping-pong the protocol must survive (performance
// pathology, correctness unaffected).
type FalseSharing struct {
	Rounds int
	data   Array
}

// Name implements Program.
func (w *FalseSharing) Name() string { return "falseshare" }

// WarmupBarriers implements Program.
func (w *FalseSharing) WarmupBarriers() int { return 0 }

// Setup implements Program.
func (w *FalseSharing) Setup(m *machine.Machine) {
	// One word per processor: four processors share each 32-byte block.
	w.data = NewArrayInterleaved(m.Layout(), "fs.data", m.Config().Processors)
}

// Kernel implements Program.
func (w *FalseSharing) Kernel(p *Proc) {
	for t := 0; t < w.Rounds; t++ {
		p.WriteWord(w.data.At(p.ID()), uint64(t+1))
		p.Compute(10)
	}
	p.Barrier()
	v := p.Read(w.data.At(p.ID()))
	if v.Word != uint64(w.Rounds) {
		p.Failf("falseshare: own word %d, want %d", v.Word, w.Rounds)
	}
}
