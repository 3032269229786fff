package cpu

import (
	"testing"
	"unsafe"

	"dsisim/internal/cache"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/proto"
	"dsisim/internal/stats"
)

// harness wires standalone processors to a protocol stack.
type harness struct {
	q     *event.Queue
	bar   *Barrier
	procs []*Proc
	brk   *stats.Breakdown // procs[0]'s
	net   *netsim.Network
}

func newHarness(t testing.TB, nprocs int, cons proto.Consistency) ([]*Proc, *harness) {
	t.Helper()
	q := &event.Queue{}
	layout := mem.NewLayout(nprocs)
	net := netsim.New(q, netsim.Config{Nodes: nprocs, Latency: 100})
	env := &proto.Env{Q: q, Net: net, Layout: layout,
		CheckFail: func(f string, a ...any) { t.Fatalf("protocol: "+f, a...) }}
	cfg := proto.Config{Consistency: cons, WriteBufferEntries: 16}
	bar := NewBarrier(q, nprocs, 100)
	var procs []*Proc
	for i := 0; i < nprocs; i++ {
		cc := proto.NewCacheCtrl(env, i, cfg, cache.Config{SizeBytes: 64 * mem.BlockSize, Assoc: 4})
		dc := proto.NewDirCtrl(env, i, cfg)
		net.SetHandler(i, func(m *netsim.Message) {
			switch m.Kind {
			case netsim.Inv, netsim.Recall, netsim.DataS, netsim.DataX, netsim.AckX, netsim.FinalAck:
				cc.Handle(m)
			default:
				dc.Handle(m)
			}
		})
		procs = append(procs, New(i, nprocs, q, cc, bar, &stats.Breakdown{}, 42))
	}
	return procs, &harness{q: q, bar: bar, procs: procs, brk: procs[0].Breakdown(), net: net}
}

// drive runs the event loop until the queue drains or a livelock budget
// expires, then releases every processor's kernel. It reports whether the
// queue drained.
func (h *harness) drive() bool {
	h.q.RunSteps(10_000_000)
	for _, p := range h.procs {
		p.Release()
	}
	return h.q.Len() == 0
}

func run(t *testing.T, h *harness, procs []*Proc) {
	t.Helper()
	if !h.drive() {
		t.Fatal("livelock: event budget expired")
	}
	for i, p := range procs {
		if !p.Done() {
			t.Fatalf("proc %d not done", i)
		}
		if p.Err() != nil {
			t.Fatalf("proc %d: %v", i, p.Err())
		}
	}
}

func TestComputeCharges(t *testing.T) {
	procs, h := newHarness(t, 1, proto.SC)
	procs[0].Start(func(p *Proc) {
		p.Compute(123)
		p.Compute(0) // no-op
	})
	run(t, h, procs)
	if h.brk.Cycles[stats.Compute] != 123 {
		t.Fatalf("compute = %d", h.brk.Cycles[stats.Compute])
	}
	if procs[0].HaltTime() != 123 {
		t.Fatalf("halt at %d", procs[0].HaltTime())
	}
}

func TestNegativeComputePanicsIntoErr(t *testing.T) {
	procs, h := newHarness(t, 1, proto.SC)
	procs[0].Start(func(p *Proc) { p.Compute(-1) })
	h.drive()
	if procs[0].Err() == nil {
		t.Fatal("negative compute did not error")
	}
}

func TestReadWriteCategories(t *testing.T) {
	procs, h := newHarness(t, 2, proto.SC)
	a := mem.Addr(1 * mem.BlockSize) // homed at node 1 (remote to proc 0)
	procs[0].Start(func(p *Proc) {
		p.Write(a) // remote write miss
		v := p.Read(a)
		if v.Writer != 0 || v.Seq != 1 {
			p.Failf("v=%v", v)
		}
	})
	procs[1].Start(func(p *Proc) {})
	run(t, h, procs)
	if h.brk.Cycles[stats.WriteOther] == 0 {
		t.Fatal("write miss charged nothing to write-other")
	}
	if h.brk.Cycles[stats.ReadOther] != 0 {
		t.Fatal("read hit charged read-other")
	}
	// Each memory op charges one issue cycle to compute.
	if h.brk.Cycles[stats.Compute] != 2 {
		t.Fatalf("compute = %d, want 2", h.brk.Cycles[stats.Compute])
	}
}

func TestWordIsolationWithinBlock(t *testing.T) {
	procs, h := newHarness(t, 1, proto.SC)
	base := mem.Addr(mem.BlockSize)
	procs[0].Start(func(p *Proc) {
		for i := 0; i < mem.WordsPerBlock; i++ {
			p.WriteWord(base+mem.Addr(i*8), uint64(100+i))
		}
		for i := 0; i < mem.WordsPerBlock; i++ {
			v := p.Read(base + mem.Addr(i*8))
			if v.Word != uint64(100+i) {
				p.Failf("word %d = %d", i, v.Word)
			}
		}
	})
	run(t, h, procs)
}

func TestSwapReturnsOldWord(t *testing.T) {
	procs, h := newHarness(t, 1, proto.SC)
	a := mem.Addr(mem.BlockSize)
	procs[0].Start(func(p *Proc) {
		if p.Swap(a, 5) != 0 {
			p.Failf("first swap")
		}
		if p.Swap(a, 9) != 5 {
			p.Failf("second swap")
		}
		if p.Read(a).Word != 9 {
			p.Failf("final read")
		}
	})
	run(t, h, procs)
}

func TestLockMutualExclusionTiming(t *testing.T) {
	procs, h := newHarness(t, 2, proto.SC)
	lock := mem.Addr(mem.BlockSize)
	data := mem.Addr(2 * mem.BlockSize)
	kernel := func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Lock(lock)
			v := p.Read(data)
			p.Compute(50)
			p.WriteWord(data, v.Word+1)
			p.Unlock(lock)
		}
		p.Barrier()
		if p.ID() == 0 {
			if v := p.Read(data); v.Word != 10 {
				p.Failf("count %d", v.Word)
			}
		}
	}
	for _, p := range procs {
		p.Start(kernel)
	}
	run(t, h, procs)
	if h.brk.Cycles[stats.Sync] == 0 {
		t.Fatal("lock activity charged no sync time")
	}
}

func TestBarrierReleaseLatency(t *testing.T) {
	procs, h := newHarness(t, 2, proto.SC)
	var releases [2]event.Time
	for i, p := range procs {
		i, p := i, p
		p.Start(func(pp *Proc) {
			pp.Compute(int64(10 * (i + 1))) // staggered arrivals: 10 and 20
			pp.Barrier()
		})
	}
	run(t, h, procs)
	releases[0] = procs[0].HaltTime()
	releases[1] = procs[1].HaltTime()
	// Release = last arrival (≈20) + 100 latency; both release together.
	if releases[0] != releases[1] {
		t.Fatalf("releases differ: %v", releases)
	}
	if releases[0] < 120 || releases[0] > 140 {
		t.Fatalf("release at %d, want ≈ 120", releases[0])
	}
	if h.bar.Episodes != 1 {
		t.Fatalf("episodes = %d", h.bar.Episodes)
	}
}

func TestBarrierOnReleaseHook(t *testing.T) {
	procs, h := newHarness(t, 2, proto.SC)
	var eps []int64
	h.bar.OnRelease = func(ep int64) { eps = append(eps, ep) }
	for _, p := range procs {
		p.Start(func(pp *Proc) {
			pp.Barrier()
			pp.Barrier()
		})
	}
	run(t, h, procs)
	if len(eps) != 2 || eps[0] != 1 || eps[1] != 2 {
		t.Fatalf("hook episodes = %v", eps)
	}
}

func TestRNGIsPerProcessorDeterministic(t *testing.T) {
	procs, _ := newHarness(t, 2, proto.SC)
	a := procs[0].RNG().Uint64()
	b := procs[1].RNG().Uint64()
	if a == b {
		t.Fatal("distinct processors share an RNG stream")
	}
	procs2, _ := newHarness(t, 2, proto.SC)
	if procs2[0].RNG().Uint64() != a {
		t.Fatal("same seed, different stream")
	}
}

func TestTraceHookSeesProgramOrder(t *testing.T) {
	procs, h := newHarness(t, 1, proto.SC)
	var kinds []string
	procs[0].OnOp = func(op TraceOp) { kinds = append(kinds, op.Kind) }
	a := mem.Addr(mem.BlockSize)
	procs[0].Start(func(p *Proc) {
		p.Write(a)
		p.Read(a)
		p.Compute(5)
	})
	run(t, h, procs)
	want := []string{"write", "read", "compute", "halt"}
	if len(kinds) != len(want) {
		t.Fatalf("trace = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace = %v, want %v", kinds, want)
		}
	}
}

func TestWCWriteIsNonBlocking(t *testing.T) {
	procs, h := newHarness(t, 2, proto.WC)
	a := mem.Addr(1 * mem.BlockSize) // remote home
	procs[0].Start(func(p *Proc) {
		p.Write(a) // buffered: should not stall ~227 cycles
		p.Compute(1)
	})
	procs[1].Start(func(p *Proc) {})
	run(t, h, procs)
	if h.brk.Cycles[stats.WriteOther]+h.brk.Cycles[stats.WriteInval] > 5 {
		t.Fatalf("WC write stalled: %v", h.brk)
	}
}

// A posted operation stays 48 bytes with its touch flag: the flags share
// the padding after its kind.
func TestSimpleOpSize(t *testing.T) {
	if s := unsafe.Sizeof(simpleOp{}); s != 48 {
		t.Fatalf("simpleOp is %d bytes, want 48", s)
	}
}

// BenchmarkProcResume measures the processor runtime's handoff: two
// processors each issue blocking Read hits on a block it already holds
// (after one miss to fetch it), and their completions alternate, so every
// operation resumes the other processor's kernel. One op is one operation:
// its completion event, the switch into the kernel and back, and the kernel
// issuing its next load.
func BenchmarkProcResume(b *testing.B) {
	procs, h := newHarness(b, 2, proto.SC)
	ops := [2]int{b.N - b.N/2, b.N / 2}
	for i, p := range procs {
		n := ops[i]
		a := mem.Addr((i + 1) * mem.BlockSize)
		p.Start(func(p *Proc) {
			p.Read(a)
			for range n {
				p.Read(a)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	h.q.Run()
	b.StopTimer()
	for _, p := range procs {
		p.Release()
		if !p.Done() {
			b.Fatalf("proc %d did not halt", p.ID())
		}
	}
}

// BenchmarkProcExpect is BenchmarkProcResume with its loads posted: the two
// processors issue Expect hits on the blocks they hold, so their kernels
// park only when their FIFOs fill. One op is one checked load: the post, its
// issue and completion event, and its retirement with the word compared.
func BenchmarkProcExpect(b *testing.B) {
	procs, h := newHarness(b, 2, proto.SC)
	ops := [2]int{b.N - b.N/2, b.N / 2}
	for i, p := range procs {
		n := ops[i]
		a := mem.Addr((i + 1) * mem.BlockSize)
		p.Start(func(p *Proc) {
			p.Read(a)
			for range n {
				p.Expect(a, 0)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	h.q.Run()
	b.StopTimer()
	for _, p := range procs {
		p.Release()
		if !p.Done() || p.Err() != nil {
			b.Fatalf("proc %d did not halt cleanly: %v", p.ID(), p.Err())
		}
	}
}

// BenchmarkProcPosted measures posted simple operations: one processor
// alternates Compute(1) and WriteWord hits on a block it holds exclusive
// (after one miss to fetch it), so its kernel parks only when its FIFO of
// posted operations fills. One op is one posted operation: the post, its
// issue and completion event, and its retirement.
func BenchmarkProcPosted(b *testing.B) {
	procs, h := newHarness(b, 1, proto.SC)
	a := mem.Addr(mem.BlockSize)
	n := b.N
	procs[0].Start(func(p *Proc) {
		p.WriteWord(a, 0)
		for i := range n {
			if i%2 == 0 {
				p.Compute(1)
			} else {
				p.WriteWord(a, uint64(i))
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	h.q.Run()
	b.StopTimer()
	procs[0].Release()
	if !procs[0].Done() || procs[0].Err() != nil {
		b.Fatalf("proc 0 did not halt cleanly: %v", procs[0].Err())
	}
}

// BenchmarkProcSync measures the synchronization path: two processors under
// WC take turns through one critical section (Lock, Read, WriteWord, Unlock
// on one lock and one data block). One op is one pass through it, with the
// drains, swaps, self-invalidations and misses of a lock handoff.
func BenchmarkProcSync(b *testing.B) {
	procs, h := newHarness(b, 2, proto.WC)
	lock := mem.Addr(mem.BlockSize)
	data := mem.Addr(2 * mem.BlockSize)
	ops := [2]int{b.N - b.N/2, b.N / 2}
	for i, p := range procs {
		n := ops[i]
		p.Start(func(p *Proc) {
			for range n {
				p.Lock(lock)
				v := p.Read(data)
				p.WriteWord(data, v.Word+1)
				p.Unlock(lock)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	h.q.Run()
	b.StopTimer()
	for _, p := range procs {
		p.Release()
		if !p.Done() || p.Err() != nil {
			b.Fatalf("proc %d did not halt cleanly: %v", p.ID(), p.Err())
		}
	}
}
