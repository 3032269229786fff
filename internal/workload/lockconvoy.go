package workload

import (
	"dsisim/internal/machine"
	"dsisim/internal/rng"
)

// LockConvoyParams scales the lockconvoy generator: every processor
// repeatedly acquires one global lock, mutates a multi-block payload under
// it, and thinks for a seeded random interval outside it. Unlike the locks
// microbenchmark (many locks, one counter each), the convoy keeps all
// processors queued on a single lock whose payload migrates with ownership —
// the worst case for eager invalidation and the pattern DSI's migratory
// detection is supposed to convert into single-message handoffs.
type LockConvoyParams struct {
	Acquisitions  int    // critical sections per processor
	PayloadBlocks int    // blocks mutated under the lock
	HoldCompute   int64  // cycles of work inside the critical section
	ThinkMax      int64  // max cycles of seeded think time outside it
	Seed          uint64 // seeds the think-time schedule
}

// LockConvoyDefaults is the paper-scale preset.
func LockConvoyDefaults() LockConvoyParams {
	return LockConvoyParams{Acquisitions: 24, PayloadBlocks: 4, HoldCompute: 40, ThinkMax: 60, Seed: 0x10c7}
}

// LockConvoyScaled returns the preset for a registry scale.
func LockConvoyScaled(s Scale) LockConvoyParams {
	p := LockConvoyDefaults()
	if s == ScaleTest {
		p.Acquisitions, p.PayloadBlocks, p.HoldCompute, p.ThinkMax = 6, 2, 10, 16
	}
	return p
}

// LockConvoy is the contended-lock generator. The critical section checks
// the invariant that every payload block equals the sequence counter, then
// advances all of them together — any lost or stale update under any
// protocol trips an assert inside the very next critical section.
type LockConvoy struct {
	P LockConvoyParams

	lk      Locks
	seq     Array     // one word: critical-section sequence counter
	payload Array     // PayloadBlocks blocks, all equal to seq
	think   [][]int64 // proc -> acquisition -> think cycles
}

// NewLockConvoy builds the workload.
func NewLockConvoy(p LockConvoyParams) *LockConvoy { return &LockConvoy{P: p} }

// Name implements Program.
func (w *LockConvoy) Name() string { return "lockconvoy" }

// WarmupBarriers implements Program.
func (w *LockConvoy) WarmupBarriers() int { return 0 }

// Setup implements Program.
func (w *LockConvoy) Setup(m *machine.Machine) {
	n := m.Config().Processors
	w.lk = NewLocks(m.Layout(), "convoy.lock", 1)
	w.seq = NewArrayInterleaved(m.Layout(), "convoy.seq", 4)
	w.payload = NewArrayInterleaved(m.Layout(), "convoy.payload", w.P.PayloadBlocks*4)
	r := rng.New(w.P.Seed)
	w.think = make([][]int64, n)
	for q := 0; q < n; q++ {
		ts := make([]int64, w.P.Acquisitions)
		for i := range ts {
			if w.P.ThinkMax > 0 {
				ts[i] = int64(r.Intn(int(w.P.ThinkMax) + 1))
			}
		}
		w.think[q] = ts
	}
}

// Kernel implements Program.
//
//dsi:hotpath
func (w *LockConvoy) Kernel(p *Proc) {
	for i := 0; i < w.P.Acquisitions; i++ {
		p.Lock(w.lk.Addr(0))
		s := p.Read(w.seq.At(0)).Word
		for b := 0; b < w.P.PayloadBlocks; b++ {
			p.Expect(w.payload.At(b*4), s)
			p.WriteWord(w.payload.At(b*4), s+1)
		}
		p.Compute(w.P.HoldCompute)
		p.WriteWord(w.seq.At(0), s+1)
		p.Unlock(w.lk.Addr(0))
		p.Compute(w.think[p.ID()][i])
	}
	p.Barrier()
	if p.ID() == 0 {
		total := uint64(p.N() * w.P.Acquisitions)
		s := p.Read(w.seq.At(0)).Word
		if s != total {
			p.Failf("lockconvoy: final seq %d, want %d", s, total)
		}
		for b := 0; b < w.P.PayloadBlocks; b++ {
			v := p.Read(w.payload.At(b * 4))
			if v.Word != total {
				p.Failf("lockconvoy: final payload block %d word %d, want %d", b, v.Word, total)
			}
		}
	}
}
