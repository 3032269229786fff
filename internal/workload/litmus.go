package workload

// Seeded random litmus programs. GenLitmus derives a small random program
// — read/write/lock-increment interleavings over a handful of blocks,
// rounds separated by barriers — deterministically from one seed. RunLitmus
// executes the spec on a real machine under a chosen protocol and fault
// plan; the kernel asserts every read against the reference model's allowed
// value set, the machine's quiesce-time check.Audit validates the coherence
// metadata, and check.CrossCheckOutcomes compares the observed final memory
// against the reference interleaving's prediction. The soak farm
// (internal/soak) sweeps generated programs across the protocol ×
// fault-plan matrix and shrinks failures with the minimizers below
// ("Mending Fences" shows self-invalidation bugs are exactly the kind only
// this style of randomized litmus exploration finds).
//
// The reference model is deliberately conservative about weak consistency:
// a read of a block another processor writes in the same round (writes are
// unique per round×block by construction) may observe either the round's
// previous value or its new value; the writer's own read observes the
// previous value before its write in program order and the new value after
// it, since a processor sees its own stores; a read of a block not written
// this round must observe the last value published by an earlier barrier.
// These are exactly the guarantees every simulated protocol — SC, WC's
// write buffer, tear-off self-invalidation, versions/states DSI — must
// preserve.

import (
	"fmt"
	"reflect"
	"sort"

	"dsisim/internal/check"
	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/obs"
	"dsisim/internal/proto"
	"dsisim/internal/rng"
)

// LitmusKind is a litmus operation kind.
type LitmusKind int

const (
	// LitmusRead reads a block and asserts the reference model's allowed set.
	LitmusRead LitmusKind = iota
	// LitmusWrite writes a unique value to a block (at most one writer per
	// block per round, so outcomes stay predictable under weak models).
	LitmusWrite
	// LitmusLockInc increments the shared counter under the global lock.
	LitmusLockInc
)

// String returns the op-kind name.
func (k LitmusKind) String() string {
	switch k {
	case LitmusRead:
		return "read"
	case LitmusWrite:
		return "write"
	case LitmusLockInc:
		return "lockinc"
	}
	return fmt.Sprintf("LitmusKind(%d)", int(k))
}

// LitmusOp is one operation of a litmus program.
type LitmusOp struct {
	Proc  int        `json:"proc"`
	Round int        `json:"round"`
	Kind  LitmusKind `json:"kind"`
	Block int        `json:"block"` // unused for lockinc
	Value uint64     `json:"value"` // writes only: the unique value stored
}

// LitmusSpec is a replayable litmus program: the seed it was generated from
// plus the explicit op list (so minimized specs survive generator changes).
type LitmusSpec struct {
	Seed   uint64     `json:"seed"`
	Procs  int        `json:"procs"`
	Blocks int        `json:"blocks"`
	Rounds int        `json:"rounds"`
	Ops    []LitmusOp `json:"ops"`
}

// GenLitmus derives a litmus program from a seed: 2–4 processors, 2–5
// blocks, 1–3 barrier-separated rounds, up to 4 ops per processor per
// round, with at most one write per (round, block) and globally unique
// write values.
func GenLitmus(seed uint64) *LitmusSpec {
	r := rng.New(seed)
	s := &LitmusSpec{
		Seed:   seed,
		Procs:  2 + r.Intn(3),
		Blocks: 2 + r.Intn(4),
		Rounds: 1 + r.Intn(3),
	}
	nextVal := uint64(1)
	written := make([]bool, s.Blocks)
	for t := 0; t < s.Rounds; t++ {
		for b := range written {
			written[b] = false
		}
		for q := 0; q < s.Procs; q++ {
			nops := r.Intn(5)
			for i := 0; i < nops; i++ {
				op := LitmusOp{Proc: q, Round: t}
				switch r.Intn(4) {
				case 0:
					op.Kind = LitmusLockInc
				case 1:
					op.Kind = LitmusWrite
					op.Block = r.Intn(s.Blocks)
					if written[op.Block] {
						op.Kind = LitmusRead // block already has this round's writer
					} else {
						written[op.Block] = true
						op.Value = nextVal
						nextVal++
					}
				default:
					op.Kind = LitmusRead
					op.Block = r.Intn(s.Blocks)
				}
				s.Ops = append(s.Ops, op)
			}
		}
	}
	return s
}

// litmusOutcome is the reference model's prediction for a spec: the final
// value of every block, the final counter, and the allowed value set for
// every read op (indexed by the op's position in Spec.Ops).
type litmusOutcome struct {
	final   []uint64    // blocks then counter
	allowed [][2]uint64 // indexed by op position in Spec.Ops; {low, high} for read ops
}

// referenceOutcome executes the spec on the sequentially-consistent
// reference interleaving (program order within a round, rounds in order,
// all of a round's writes published by its barrier).
func referenceOutcome(s *LitmusSpec) litmusOutcome {
	out := litmusOutcome{
		final:   make([]uint64, s.Blocks+1),
		allowed: make([][2]uint64, len(s.Ops)),
	}
	cur := make([]uint64, s.Blocks)  // value published by the last barrier
	prev := make([]uint64, s.Blocks) // value before this round's write
	writer := make([]int, s.Blocks)  // this round's write op, -1 = none
	var counter uint64
	for t := 0; t < s.Rounds; t++ {
		for b := 0; b < s.Blocks; b++ {
			prev[b] = cur[b]
			writer[b] = -1
		}
		// Pass 1: the round's writes. Processors run concurrently within a
		// round, so a read races with the round's write regardless of where
		// the two ops sit in the spec's op list.
		for i := range s.Ops {
			op := &s.Ops[i]
			if op.Round != t {
				continue
			}
			switch op.Kind {
			case LitmusWrite:
				writer[op.Block] = i
				cur[op.Block] = op.Value
			case LitmusLockInc:
				counter++
			case LitmusRead:
				// Reads are resolved in pass 2.
			}
		}
		// Pass 2: the round's reads, against the full write set. A
		// processor's ops within a round run in spec order.
		for i := range s.Ops {
			op := &s.Ops[i]
			if op.Round != t || op.Kind != LitmusRead {
				continue
			}
			old := prev[op.Block]
			switch w := writer[op.Block]; {
			case w < 0:
				out.allowed[i] = [2]uint64{old, old}
			case s.Ops[w].Proc != op.Proc:
				// Racing with another processor's write: either value is legal.
				out.allowed[i] = [2]uint64{old, s.Ops[w].Value}
			case i < w:
				out.allowed[i] = [2]uint64{old, old}
			default:
				out.allowed[i] = [2]uint64{s.Ops[w].Value, s.Ops[w].Value}
			}
		}
	}
	copy(out.final, cur)
	out.final[s.Blocks] = counter
	return out
}

// litmusProgram runs a LitmusSpec as a machine.Program.
type litmusProgram struct {
	spec *LitmusSpec
	ref  litmusOutcome

	data Array
	ctr  Array
	lk   Locks

	perProc [][]int  // proc -> indices into spec.Ops, program order
	got     []uint64 // observed finals, written by proc 0 after the last barrier

	// breakWrites is the test canary: drop all writes to block 0 while the
	// reference model keeps them, so the outcome cross-check must fire.
	breakWrites bool
}

func newLitmusProgram(s *LitmusSpec) *litmusProgram {
	prog := &litmusProgram{
		spec:    s,
		ref:     referenceOutcome(s),
		perProc: make([][]int, s.Procs),
		got:     make([]uint64, s.Blocks+1),
	}
	for i := range s.Ops {
		q := s.Ops[i].Proc
		prog.perProc[q] = append(prog.perProc[q], i)
	}
	// Hand-written (loaded) specs may list ops out of round order; the
	// kernel replays each processor's ops round by round.
	for q := range prog.perProc {
		idx := prog.perProc[q]
		sort.SliceStable(idx, func(a, b int) bool { return s.Ops[idx[a]].Round < s.Ops[idx[b]].Round })
	}
	return prog
}

// Name implements Program.
func (w *litmusProgram) Name() string { return fmt.Sprintf("litmus-%x", w.spec.Seed) }

// WarmupBarriers implements Program: litmus programs measure nothing, so
// everything is "measured" (statistics are irrelevant here).
func (w *litmusProgram) WarmupBarriers() int { return 0 }

// Setup implements Program.
func (w *litmusProgram) Setup(m *machine.Machine) {
	w.data = NewArrayInterleaved(m.Layout(), "litmus.data", w.spec.Blocks*4)
	w.ctr = NewArrayInterleaved(m.Layout(), "litmus.ctr", 4)
	w.lk = NewLocks(m.Layout(), "litmus.lock", 1)
}

// Kernel implements Program. The per-op dispatch loop is the litmus
// simulation hot path: every generated program funnels through it under
// every protocol x fault-plan cell.
//
//dsi:hotpath
func (w *litmusProgram) Kernel(p *Proc) {
	ops := w.perProc[p.ID()]
	k := 0
	for t := 0; t < w.spec.Rounds; t++ {
		for ; k < len(ops) && w.spec.Ops[ops[k]].Round == t; k++ {
			i := ops[k]
			op := &w.spec.Ops[i]
			switch op.Kind {
			case LitmusWrite:
				if w.breakWrites && op.Block == 0 {
					break // canary: silently lose the write
				}
				p.WriteWord(w.data.At(op.Block*4), op.Value)
			case LitmusLockInc:
				p.Lock(w.lk.Addr(0))
				v := p.Read(w.ctr.At(0))
				p.WriteWord(w.ctr.At(0), v.Word+1)
				p.Unlock(w.lk.Addr(0))
			case LitmusRead:
				a := w.ref.allowed[i]
				v := p.Read(w.data.At(op.Block * 4))
				if v.Word != a[0] && v.Word != a[1] {
					p.Failf("litmus: op %d round %d block %d read %d, allowed {%d, %d}",
						i, t, op.Block, v.Word, a[0], a[1])
				}
			}
		}
		p.Barrier()
	}
	if p.ID() == 0 {
		for b := 0; b < w.spec.Blocks; b++ {
			w.got[b] = p.Read(w.data.At(b * 4)).Word
		}
		w.got[w.spec.Blocks] = p.Read(w.ctr.At(0)).Word
	}
}

// LitmusRun bundles the optional knobs of one litmus execution beyond the
// spec, protocol and fault plan.
type LitmusRun struct {
	// Canary enables the broken-protocol write-dropping canary: the executed
	// kernel silently loses writes to block 0 while the reference model keeps
	// them, so the outcome cross-check must fail. It exists so the soak
	// farm's detection pipeline can prove, in tests, that a real protocol
	// bug would be caught, minimized, and persisted.
	Canary bool
	// Sink, if set, receives the run's coherence-event stream.
	Sink *obs.Sink
}

// RunLitmus executes the spec under one protocol and fault plan and returns
// the kernel's event count and simulated cycles alongside the verdict: the
// first kernel assert or audit error recorded in the result, or an outcome
// cross-check mismatch. fc is used as given, seed included (nil runs
// fault-free); the machine seed derives from the spec's. Events and cycles
// are deterministic per (spec, protocol, plan) — the soak engine journals
// them, where every byte must be reproducible across a kill/resume.
func RunLitmus(s *LitmusSpec, pr proto.Label, fc *faultinj.Config, o LitmusRun) (events uint64, cycles int64, err error) {
	prog := newLitmusProgram(s)
	prog.breakWrites = o.Canary
	res := machine.Run(machine.Config{
		Processors:  s.Procs,
		Consistency: pr.Consistency,
		Policy:      pr.Policy,
		Seed:        s.Seed | 1,
		Sink:        o.Sink,
		Faults:      fc,
	}, prog)
	events, cycles = res.Kernel.Events, int64(res.TotalTime)
	if res.Failed() {
		return events, cycles, fmt.Errorf("%s: %s", pr.Name, res.Errors[0])
	}
	return events, cycles, check.CrossCheckOutcomes("block", prog.got, prog.ref.final)
}

// MinimizeLitmus greedily deletes ops while fails still reports failure,
// iterating to a fixpoint: the returned spec fails, but removing any single
// op from it no longer does.
func MinimizeLitmus(s *LitmusSpec, fails func(*LitmusSpec) bool) *LitmusSpec {
	cur := *s
	cur.Ops = append([]LitmusOp(nil), s.Ops...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Ops); i++ {
			cand := cur
			cand.Ops = append(append([]LitmusOp(nil), cur.Ops[:i]...), cur.Ops[i+1:]...)
			if fails(&cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	return &cur
}

// MinimizeFaultConfig greedily shrinks a failing fault plan while fails
// still reports failure: scripted rules are dropped one at a time to a
// fixpoint, then each probabilistic knob (drop, dup, delay, the per-kind
// and per-link overrides) is zeroed if the failure survives without it.
// The returned config still fails, but removing any single rule — or any
// one remaining knob — no longer does. A nil config (fault-free cell)
// returns nil: there is nothing to shrink.
func MinimizeFaultConfig(fc *faultinj.Config, fails func(*faultinj.Config) bool) *faultinj.Config {
	if fc == nil {
		return nil
	}
	cur := *fc
	cur.Rules = append([]faultinj.Rule(nil), fc.Rules...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Rules); i++ {
			cand := cur
			cand.Rules = append(append([]faultinj.Rule(nil), cur.Rules[:i]...), cur.Rules[i+1:]...)
			if fails(&cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	try := func(mutate func(*faultinj.Config)) {
		cand := cur
		mutate(&cand)
		if fails(&cand) {
			cur = cand
		}
	}
	if cur.Drop != 0 {
		try(func(c *faultinj.Config) { c.Drop = 0 })
	}
	if cur.Dup != 0 {
		try(func(c *faultinj.Config) { c.Dup = 0 })
	}
	if cur.Delay != 0 {
		try(func(c *faultinj.Config) { c.Delay = 0 })
	}
	if cur.DropByKind != nil {
		try(func(c *faultinj.Config) { c.DropByKind = nil })
	}
	if cur.DropByLink != nil {
		try(func(c *faultinj.Config) { c.DropByLink = nil })
	}
	return &cur
}

// MinimizeLitmusFaults jointly shrinks a failing (spec, fault plan) pair to
// a replayable repro. Fault-plan rules are dropped before ops: a scripted
// rule counts occurrences of a message shape, so a superfluous rule can pin
// ops in place — deleting an op shifts the occurrence stream, the rule
// stops firing, the failure vanishes, and op-deletion keeps the op. With
// the noise rules gone first, op-deletion shrinks further (the minimizer
// test pins a case where rules-first finds a strictly smaller repro than
// op-deletion alone). The two passes alternate to a joint fixpoint. fc may
// be nil for a fault-free cell; the returned pair still fails.
func MinimizeLitmusFaults(s *LitmusSpec, fc *faultinj.Config, fails func(*LitmusSpec, *faultinj.Config) bool) (*LitmusSpec, *faultinj.Config) {
	curS := s
	curF := fc
	for changed := true; changed; {
		changed = false
		nf := MinimizeFaultConfig(curF, func(c *faultinj.Config) bool { return fails(curS, c) })
		if !reflect.DeepEqual(nf, curF) {
			curF = nf
			changed = true
		}
		ns := MinimizeLitmus(curS, func(c *LitmusSpec) bool { return fails(c, curF) })
		if len(ns.Ops) != len(curS.Ops) {
			changed = true
		}
		curS = ns
	}
	return curS, curF
}
