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

// postedProg builds a program that stresses the processors' FIFO of posted
// simple operations: runs of stores longer than its bound, compute delays
// (zero-length ones included) between stores, discarded loads, a checked
// load of a block the processor's own posted store wrote, stores posted
// inside a critical section, and kernels that end with operations still
// posted: processor 0 returns behind a run of stores longer than the bound,
// and the last processor fails right after posting stores and a delay.
// discard issues each load whose value the kernel does not use.
func postedProg(discard func(p *cpu.Proc, a mem.Addr)) *prog {
	var own, fresh, shared, lock mem.Region
	return &prog{
		name:   "posted",
		warmup: 1,
		setup: func(m *Machine) {
			n := uint64(m.Config().Processors)
			own = m.Layout().AllocBlocked("own", n*8*mem.BlockSize)
			fresh = m.Layout().AllocBlocked("fresh", n*mem.BlockSize)
			shared = m.Layout().AllocInterleaved("shared", 16*mem.BlockSize)
			lock = m.Layout().AllocInterleaved("lock", mem.BlockSize)
		},
		kernel: func(p *cpu.Proc) {
			id, n := p.ID(), p.N()
			const ownWords, shWords = 8 * mem.WordsPerBlock, 16 * mem.WordsPerBlock
			mine := func(i int) mem.Addr { return own.Addr(uint64(id*ownWords+i%ownWords) * 8) }
			sh := func(i int) mem.Addr { return shared.Addr(uint64(i%shWords) * 8) }
			for i := range 64 {
				p.WriteWord(mine(i), 1)
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
				p.Compute(int64(i % 4))
			}
			for i := range 90 {
				discard(p, sh(i*3+(id+1)%n))
				discard(p, mine(i+7))
				if i%5 == 0 {
					p.WriteWord(mine(i), uint64(i))
				}
			}
			a := fresh.Addr(uint64(id*mem.WordsPerBlock+3) * 8)
			p.WriteWord(a, uint64(1000+id))
			if v := p.Read(a); v.Word != uint64(1000+id) {
				p.Failf("read %d after storing %d", v.Word, 1000+id)
			}
			p.Lock(lock.Addr(0))
			c := p.Read(sh(shWords - 1))
			p.WriteWord(sh(shWords-1), c.Word+1)
			for i := range 10 {
				p.WriteWord(mine(i), 7)
				discard(p, sh(i))
			}
			p.Unlock(lock.Addr(0))
			p.Barrier()
			switch id {
			case 0:
				for i := range 100 {
					p.WriteWord(mine(i), 9)
				}
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

// postedGolden is postedProg's outcome on 4 processors under one protocol
// label, captured when every load, store and compute delay still switched
// into its kernel and back.
type postedGolden struct {
	label       string
	exec, total event.Time
	breakdown   [stats.NumCategories]int64
	msgs        [netsim.NumKinds]int64
	events      uint64
	halts       []event.Time
	errors      []string
}

var postedGoldens = []postedGolden{
	{"SC", 32196, 32480, [10]int64{2031, 17374, 9004, 14814, 33418, 51356, 0, 0, 0, 0}, [18]int64{54, 164, 5, 177, 42, 53, 124, 42, 54, 165, 4, 0, 0, 0, 0, 0, 0, 0}, 4155, []event.Time{32147, 32053, 32053, 32480}, []string{"proc 3: proc 3 assertion failed: failed with 3 operations posted"}},
	{"V", 32278, 32562, [10]int64{2032, 17663, 8140, 15803, 33206, 51344, 0, 0, 0, 137}, [18]int64{60, 165, 5, 174, 38, 52, 123, 37, 60, 166, 4, 0, 0, 0, 20, 7, 0, 0}, 4194, []event.Time{32229, 32135, 32135, 32562}, []string{"proc 3: proc 3 assertion failed: failed with 3 operations posted"}},
	{"W+DSI", 8127, 8641, [10]int64{2033, 13077, 1719, 13116, 0, 0, 1402, 1233, 0, 45}, [18]int64{49, 34, 4, 31, 8, 8, 23, 8, 49, 36, 2, 3, 0, 0, 0, 4, 0, 0}, 2918, []event.Time{8312, 8218, 8218, 8217}, []string{"proc 3: proc 3 assertion failed: failed with 3 operations posted"}},
}

// TestPostedOperationsExact runs postedProg with its discarded loads as Read
// and as Touch, and requires both to reproduce the golden exactly: posting
// simple operations may change when a kernel's Go code runs, never what the
// simulated machine does.
func TestPostedOperationsExact(t *testing.T) {
	variants := []struct {
		name    string
		discard func(p *cpu.Proc, a mem.Addr)
	}{
		{"read", func(p *cpu.Proc, a mem.Addr) { p.Read(a) }},
		{"touch", func(p *cpu.Proc, a mem.Addr) { p.Touch(a) }},
	}
	for _, g := range postedGoldens {
		l, err := proto.LabelOf(g.label)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			t.Run(g.label+"/"+v.name, func(t *testing.T) {
				m := New(small(Config{Consistency: l.Consistency, Policy: l.Policy}, 4))
				r := m.Run(postedProg(v.discard))
				halts := make([]event.Time, len(m.procs))
				for i, p := range m.procs {
					halts[i] = p.HaltTime()
				}
				got := postedGolden{g.label, r.ExecTime, r.TotalTime, r.Breakdown.Cycles,
					r.Messages.ByKind, r.Kernel.Events, halts, r.Errors}
				if !reflect.DeepEqual(got, g) {
					t.Fatalf("outcome diverged from the golden:\ngot:    %+v\ngolden: %+v", got, g)
				}
			})
		}
	}
}
