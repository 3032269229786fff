package machine

import (
	"reflect"
	"testing"

	"dsisim/internal/cpu"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/proto"
	"dsisim/internal/stats"
)

// loadVariant names how a test program issues its loads: discard issues a
// load whose value the kernel does not use, check one whose word must equal
// want.
type loadVariant struct {
	name    string
	discard func(p *cpu.Proc, a mem.Addr)
	check   func(p *cpu.Proc, a mem.Addr, want uint64)
}

// readCheck is a checked load as a blocking Read and a guarded Failf that
// prints Expect's failure text.
func readCheck(p *cpu.Proc, a mem.Addr, want uint64) {
	if v := p.Read(a); v.Word != want {
		p.Failf("load of %#x word %d, want %d", uint64(a), v.Word, want)
	}
}

// loadVariants runs discarded loads as Read and as Touch and checked loads
// as Read with Failf and as Expect: the first two variants are what the
// goldens were captured with, the last posts every load.
var loadVariants = []loadVariant{
	{"read", func(p *cpu.Proc, a mem.Addr) { p.Read(a) }, readCheck},
	{"touch", (*cpu.Proc).Touch, readCheck},
	{"expect", (*cpu.Proc).Touch, (*cpu.Proc).Expect},
}

// postedProg builds a program that stresses the processors' FIFO of posted
// simple operations: runs of stores longer than its bound, compute delays
// (zero-length ones included) between stores, discarded and checked loads
// among them, a checked load of a block the processor's own posted store
// wrote, stores posted inside a critical section, checked loads of blocks
// their writers changed before the last barrier, and kernels that end with
// operations still posted: processor 0 returns behind a run of stores longer
// than the bound with a checked load at its tail, and the last processor
// fails right after posting stores and a delay.
func postedProg(v loadVariant) *prog {
	var own, fresh, shared, chk, lock mem.Region
	return &prog{
		name:   "posted",
		warmup: 1,
		setup: func(m *Machine) {
			n := uint64(m.Config().Processors)
			own = m.Layout().AllocBlocked("own", n*8*mem.BlockSize)
			fresh = m.Layout().AllocBlocked("fresh", n*mem.BlockSize)
			shared = m.Layout().AllocInterleaved("shared", 16*mem.BlockSize)
			chk = m.Layout().AllocBlocked("chk", n*4*mem.BlockSize)
			lock = m.Layout().AllocInterleaved("lock", mem.BlockSize)
		},
		kernel: func(p *cpu.Proc) {
			id, n := p.ID(), p.N()
			const ownWords, shWords, chkWords = 8 * mem.WordsPerBlock, 16 * mem.WordsPerBlock, 4 * mem.WordsPerBlock
			mine := func(i int) mem.Addr { return own.Addr(uint64(id*ownWords+i%ownWords) * 8) }
			sh := func(i int) mem.Addr { return shared.Addr(uint64(i%shWords) * 8) }
			// theirs is word i of processor q's checked blocks, which only q
			// writes, before a barrier.
			theirs := func(q, i int) mem.Addr { return chk.Addr(uint64(q%n*chkWords+i%chkWords) * 8) }
			for i := range 64 {
				p.WriteWord(mine(i), 1)
			}
			for i := range chkWords {
				p.WriteWord(theirs(id, i), uint64(500+id))
			}
			p.Barrier() // end of warm-up
			for i := range 150 {
				if i%8 == 0 {
					p.WriteWord(sh(i*n+id), uint64(i))
				} else {
					p.WriteWord(mine(i), uint64(i))
				}
			}
			for i := range 40 {
				p.WriteWord(sh(i*8+id), uint64(i))
				v.check(p, theirs(id+1, i), uint64(500+(id+1)%n))
				p.Compute(int64(i % 4))
			}
			for i := range 90 {
				v.discard(p, sh(i*3+(id+1)%n))
				v.discard(p, mine(i+7))
				if i%5 == 0 {
					p.WriteWord(mine(i), uint64(i))
				}
				if i%3 == 0 {
					v.check(p, theirs(id+2, i), uint64(500+(id+2)%n))
				}
			}
			a := fresh.Addr(uint64(id*mem.WordsPerBlock+3) * 8)
			p.WriteWord(a, uint64(1000+id))
			v.check(p, a, uint64(1000+id))
			p.Lock(lock.Addr(0))
			c := p.Read(sh(shWords - 1))
			p.WriteWord(sh(shWords-1), c.Word+1)
			for i := range 10 {
				p.WriteWord(mine(i), 7)
				v.discard(p, sh(i))
			}
			p.Unlock(lock.Addr(0))
			p.Barrier()
			for i := range chkWords {
				p.WriteWord(theirs(id, i), uint64(600+id))
			}
			p.Barrier()
			for i := range chkWords {
				v.check(p, theirs(id+3, i), uint64(600+(id+3)%n))
				p.WriteWord(mine(i), 8)
			}
			switch id {
			case 0:
				for i := range 100 {
					p.WriteWord(mine(i), 9)
				}
				v.check(p, theirs(1, 5), 601)
			case n - 1:
				p.WriteWord(mine(0), 9)
				p.WriteWord(sh(id), 9)
				p.Compute(3)
				p.Failf("failed with %d operations posted", 3)
			default:
				p.WriteWord(mine(1), 9)
				p.Compute(5)
			}
		},
	}
}

// failProg builds a program whose checked loads fail, after a warm-up and a
// phase of checks that pass, on blocks their writers have changed since:
// processor 0's check fails with a run of stores longer than the FIFO
// posted behind it; processor 1 returns with its failing check still posted
// behind a run of stores; processor 2 takes a lock right after posting its
// failing check; and processor 3 fails on its own right after posting one.
// No checked load reads a block its processor has stores buffered for.
func failProg(v loadVariant) *prog {
	var src, dst, lock mem.Region
	return &prog{
		name:   "fail",
		warmup: 1,
		setup: func(m *Machine) {
			n := uint64(m.Config().Processors)
			src = m.Layout().AllocBlocked("src", n*4*mem.BlockSize)
			dst = m.Layout().AllocBlocked("dst", n*4*mem.BlockSize)
			lock = m.Layout().AllocInterleaved("lock", mem.BlockSize)
		},
		kernel: func(p *cpu.Proc) {
			id, n := p.ID(), p.N()
			const words = 4 * mem.WordsPerBlock
			at := func(r mem.Region, q, i int) mem.Addr { return r.Addr(uint64(q*words+i%words) * 8) }
			next := (id + 1) % n
			for i := range words {
				p.WriteWord(at(src, id, i), uint64(100+id))
			}
			p.Barrier() // end of warm-up
			for i := range 3 * words {
				v.check(p, at(src, next, i), uint64(100+next))
				p.WriteWord(at(dst, id, i), uint64(i))
				p.Compute(int64(i % 3))
			}
			for i := range words {
				p.WriteWord(at(src, id, i), uint64(200+id))
			}
			p.Barrier()
			const wrong = 999
			switch id {
			case 0:
				v.check(p, at(src, next, 1), wrong)
				for i := range 100 {
					p.WriteWord(at(dst, id, i), 8)
				}
			case 1:
				for i := range 10 {
					p.WriteWord(at(dst, id, i), 7)
				}
				v.check(p, at(src, next, 2), wrong)
				p.WriteWord(at(dst, id, 1), 8)
				p.Compute(4)
			case 2:
				v.check(p, at(src, next, 3), wrong)
				p.Lock(lock.Addr(0))
				p.Unlock(lock.Addr(0))
			default:
				v.check(p, at(src, next, 4), wrong)
				p.WriteWord(at(dst, id, 2), 7)
				p.Failf("failed behind a failing check")
			}
		},
	}
}

// outcome is a 4-processor run's outcome under one protocol label.
type outcome struct {
	label       string
	exec, total event.Time
	breakdown   [stats.NumCategories]int64
	msgs        [netsim.NumKinds]int64
	events      uint64
	halts       []event.Time
	errors      []string
}

// postedGoldens is postedProg's outcome, captured with every load blocking
// (discards and checks as Read) at a commit where loads whose value the
// kernel uses still switched into it.
var postedGoldens = []outcome{
	{"SC", 34743, 35103, [10]int64{2508, 14020, 7138, 25211, 37660, 51864, 0, 0, 0, 0}, [18]int64{102, 168, 4, 208, 33, 72, 136, 33, 102, 168, 4, 0, 0, 0, 0, 0, 0, 0}, 5149, []event.Time{34994, 34672, 34672, 35103}, []string{"proc 3: proc 3 assertion failed: failed with 3 operations posted"}},
	{"V", 35322, 35682, [10]int64{2510, 15286, 6924, 26582, 37454, 51862, 0, 0, 0, 99}, [18]int64{108, 169, 4, 207, 32, 72, 135, 32, 108, 169, 4, 0, 0, 0, 22, 3, 0, 0}, 5202, []event.Time{35573, 35251, 35251, 35682}, []string{"proc 3: proc 3 assertion failed: failed with 3 operations posted"}},
	{"W", 11219, 11549, [10]int64{2511, 13625, 2206, 22130, 0, 0, 2865, 972, 0, 0}, [18]int64{91, 55, 4, 84, 10, 38, 46, 10, 91, 55, 4, 4, 0, 0, 0, 0, 0, 0}, 4156, []event.Time{11444, 11122, 11122, 11121}, []string{"proc 3: proc 3 assertion failed: failed with 3 operations posted"}},
	{"W+DSI", 10853, 11183, [10]int64{2509, 12280, 1778, 22980, 0, 0, 2250, 972, 0, 76}, [18]int64{96, 56, 4, 83, 8, 39, 44, 8, 96, 58, 2, 3, 0, 0, 7, 5, 0, 0}, 4179, []event.Time{11078, 10756, 10756, 10755}, []string{"proc 3: proc 3 assertion failed: failed with 3 operations posted"}},
}

// failGoldens is failProg's outcome, captured with its checks as Read and
// Failf before Expect existed.
var failGoldens = []outcome{
	{"SC", 2362, 2538, [10]int64{662, 800, 40, 4540, 3296, 480, 0, 0, 0, 0}, [18]int64{20, 0, 0, 16, 0, 16, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1028, []event.Time{2528, 2538, 2528, 2528}, []string{"proc 0: proc 0 assertion failed: load of 0xa8 word 201, want 999", "proc 1: proc 1 assertion failed: load of 0x130 word 202, want 999", "proc 2: proc 2 assertion failed: load of 0x1b8 word 203, want 999", "proc 3: proc 3 assertion failed: load of 0x40 word 200, want 999"}},
	{"V", 2362, 2538, [10]int64{662, 800, 40, 4540, 3296, 480, 0, 0, 0, 0}, [18]int64{20, 0, 0, 16, 0, 16, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1028, []event.Time{2528, 2538, 2528, 2528}, []string{"proc 0: proc 0 assertion failed: load of 0xa8 word 201, want 999", "proc 1: proc 1 assertion failed: load of 0x130 word 202, want 999", "proc 2: proc 2 assertion failed: load of 0x1b8 word 203, want 999", "proc 3: proc 3 assertion failed: load of 0x40 word 200, want 999"}},
	{"W", 1653, 1798, [10]int64{662, 800, 40, 4540, 0, 0, 940, 0, 0, 0}, [18]int64{20, 0, 0, 16, 0, 16, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1044, []event.Time{1788, 1798, 1788, 1788}, []string{"proc 0: proc 0 assertion failed: load of 0xa8 word 201, want 999", "proc 1: proc 1 assertion failed: load of 0x130 word 202, want 999", "proc 2: proc 2 assertion failed: load of 0x1b8 word 203, want 999", "proc 3: proc 3 assertion failed: load of 0x40 word 200, want 999"}},
	{"W+DSI", 1653, 1798, [10]int64{662, 800, 40, 4540, 0, 0, 940, 0, 0, 0}, [18]int64{20, 0, 0, 16, 0, 16, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1044, []event.Time{1788, 1798, 1788, 1788}, []string{"proc 0: proc 0 assertion failed: load of 0xa8 word 201, want 999", "proc 1: proc 1 assertion failed: load of 0x130 word 202, want 999", "proc 2: proc 2 assertion failed: load of 0x1b8 word 203, want 999", "proc 3: proc 3 assertion failed: load of 0x40 word 200, want 999"}},
}

// runOutcome runs prog on a fresh 4-processor machine under label.
func runOutcome(t *testing.T, label string, prog Program) outcome {
	t.Helper()
	l, err := proto.LabelOf(label)
	if err != nil {
		t.Fatal(err)
	}
	m := New(small(Config{Consistency: l.Consistency, Policy: l.Policy}, 4))
	r := m.Run(prog)
	halts := make([]event.Time, len(m.procs))
	for i, p := range m.procs {
		halts[i] = p.HaltTime()
	}
	return outcome{label, r.ExecTime, r.TotalTime, r.Breakdown.Cycles,
		r.Messages.ByKind, r.Kernel.Events, halts, r.Errors}
}

// TestPostedOperationsExact runs postedProg under every load variant and
// requires each to reproduce the golden exactly: posting simple operations
// may change when a kernel's Go code runs, never what the simulated machine
// does.
func TestPostedOperationsExact(t *testing.T) {
	for _, g := range postedGoldens {
		for _, v := range loadVariants {
			t.Run(g.label+"/"+v.name, func(t *testing.T) {
				if got := runOutcome(t, g.label, postedProg(v)); !reflect.DeepEqual(got, g) {
					t.Fatalf("outcome diverged from the golden:\ngot:    %+v\ngolden: %+v", got, g)
				}
			})
		}
	}
}

// TestFailedChecksExact runs failProg under every load variant: a check
// that fails, wherever its kernel is parked and whatever it posted behind
// the check, must halt its processor where a blocking Read and Failf halted
// it, with the same error, and drop the operations posted behind the check.
func TestFailedChecksExact(t *testing.T) {
	for _, g := range failGoldens {
		for _, v := range loadVariants {
			t.Run(g.label+"/"+v.name, func(t *testing.T) {
				if got := runOutcome(t, g.label, failProg(v)); !reflect.DeepEqual(got, g) {
					t.Fatalf("outcome diverged from the golden:\ngot:    %+v\ngolden: %+v", got, g)
				}
			})
		}
	}
}

// TestOwnBufferedStoreVisible has four processors load a block, store to it
// and load it again, under every protocol label: each must load its own
// store, which under weak consistency still waits in its write buffer for
// the upgrade of the read-only copy the first load brought in.
func TestOwnBufferedStoreVisible(t *testing.T) {
	for _, l := range proto.Labels() {
		for _, v := range loadVariants {
			t.Run(l.Name+"/"+v.name, func(t *testing.T) {
				var data mem.Region
				m := New(small(Config{Consistency: l.Consistency, Policy: l.Policy}, 4))
				r := m.Run(&prog{
					name:  "own-store",
					setup: func(m *Machine) { data = m.Layout().AllocInterleaved("data", mem.BlockSize) },
					kernel: func(p *cpu.Proc) {
						a := data.Addr(0)
						v.discard(p, a)
						p.WriteWord(a, 1000)
						v.check(p, a, 1000)
					},
				})
				mustClean(t, r)
			})
		}
	}
}
