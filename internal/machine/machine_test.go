package machine

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dsisim/internal/core"
	"dsisim/internal/cpu"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/proto"
	"dsisim/internal/stats"
)

// prog is an inline test program.
type prog struct {
	name   string
	setup  func(m *Machine)
	kernel func(p *cpu.Proc)
	warmup int
}

func (p *prog) Name() string { return p.name }
func (p *prog) Setup(m *Machine) {
	if p.setup != nil {
		p.setup(m)
	}
}
func (p *prog) Kernel(pr *cpu.Proc) { p.kernel(pr) }
func (p *prog) WarmupBarriers() int { return p.warmup }

// configs lists machine configurations every correctness test runs under.
func configs() map[string]Config {
	return map[string]Config{
		"sc":          {Consistency: proto.SC},
		"sc-states":   {Consistency: proto.SC, Policy: core.Policy{Identifier: core.States{}, UpgradeExemption: true}},
		"sc-versions": {Consistency: proto.SC, Policy: core.Policy{Identifier: core.Versions{}, UpgradeExemption: true}},
		"sc-fifo": {Consistency: proto.SC, Policy: core.Policy{
			Identifier:   core.Versions{},
			NewMechanism: func() core.Mechanism { return core.NewFIFO(8) },
		}},
		"wc":         {Consistency: proto.WC},
		"wc-dsi":     {Consistency: proto.WC, Policy: core.Policy{Identifier: core.Versions{}}},
		"wc-tearoff": {Consistency: proto.WC, Policy: core.Policy{Identifier: core.Versions{}, TearOff: true}},
	}
}

func small(cfg Config, procs int) Config {
	cfg.Processors = procs
	cfg.CacheBytes = 64 * mem.BlockSize // small but multi-set
	cfg.CacheAssoc = 4
	return cfg
}

func mustClean(t *testing.T, r Result) {
	t.Helper()
	if r.Failed() {
		t.Fatalf("run failed:\n%s", r.Errors[0])
	}
}

func TestComputeOnlyTiming(t *testing.T) {
	m := New(small(Config{Consistency: proto.SC}, 1))
	r := m.Run(&prog{name: "compute", kernel: func(p *cpu.Proc) {
		p.Compute(1000)
	}})
	mustClean(t, r)
	if r.ExecTime != 1000 {
		t.Fatalf("exec time = %d, want 1000", r.ExecTime)
	}
	if r.Breakdown.Cycles[stats.Compute] != 1000 {
		t.Fatalf("compute cycles = %d", r.Breakdown.Cycles[stats.Compute])
	}
}

// Producer-consumer through a barrier: the consumer must observe the
// producer's token under every configuration, including tear-off.
func TestProducerConsumerAllConfigs(t *testing.T) {
	for name, cfg := range configs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			var data mem.Region
			p := &prog{
				name: "prodcons",
				setup: func(m *Machine) {
					data = m.Layout().AllocInterleaved("data", 16*mem.BlockSize)
				},
				kernel: func(p *cpu.Proc) {
					const rounds = 5
					for round := 0; round < rounds; round++ {
						if p.ID() == 0 {
							for i := 0; i < 16; i++ {
								p.Write(data.Addr(uint64(i) * mem.BlockSize))
							}
						}
						p.Barrier()
						if p.ID() != 0 {
							for i := 0; i < 16; i++ {
								v := p.Read(data.Addr(uint64(i) * mem.BlockSize))
								p.Assert(v.Writer == 0, "round %d blk %d: writer %d", round, i, v.Writer)
								p.Assert(v.Seq == uint64(round*16+i+1), "round %d blk %d: seq %d", round, i, v.Seq)
							}
						}
						p.Barrier()
					}
				},
			}
			r := New(small(cfg, 4)).Run(p)
			mustClean(t, r)
			if r.Barriers != 10 {
				t.Fatalf("barrier episodes = %d, want 10", r.Barriers)
			}
		})
	}
}

// Lock-protected counter: mutual exclusion must hold under every
// configuration (word increments are read-modify-write on a shared block).
func TestLockedCounterAllConfigs(t *testing.T) {
	for name, cfg := range configs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			var lock, counter mem.Region
			const iters = 10
			p := &prog{
				name: "counter",
				setup: func(m *Machine) {
					lock = m.Layout().AllocInterleaved("lock", mem.BlockSize)
					counter = m.Layout().AllocInterleaved("counter", mem.BlockSize)
				},
				kernel: func(p *cpu.Proc) {
					for i := 0; i < iters; i++ {
						p.Lock(lock.Addr(0))
						v := p.Read(counter.Addr(0))
						p.WriteWord(counter.Addr(0), v.Word+1)
						p.Unlock(lock.Addr(0))
						p.Compute(int64(10 + p.ID()*3))
					}
					p.Barrier()
					if p.ID() == 0 {
						v := p.Read(counter.Addr(0))
						p.Assert(v.Word == uint64(p.N()*iters),
							"counter = %d, want %d", v.Word, p.N()*iters)
					}
				},
			}
			r := New(small(cfg, 4)).Run(p)
			mustClean(t, r)
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		var data mem.Region
		p := &prog{
			name: "det",
			setup: func(m *Machine) {
				data = m.Layout().AllocBlocked("data", 64*mem.BlockSize)
			},
			kernel: func(p *cpu.Proc) {
				rnd := p.RNG()
				for i := 0; i < 200; i++ {
					a := data.Addr(uint64(rnd.Intn(64)) * mem.BlockSize)
					if rnd.Bool(0.3) {
						p.Write(a)
					} else {
						p.Read(a)
					}
					p.Compute(int64(rnd.Intn(20)))
				}
				p.Barrier()
			},
		}
		cfg := small(Config{Consistency: proto.WC, Policy: core.Policy{Identifier: core.Versions{}, TearOff: true}}, 6)
		return New(cfg).Run(p)
	}
	a, b := run(), run()
	mustClean(t, a)
	if a.ExecTime != b.ExecTime {
		t.Fatalf("nondeterministic exec time: %d vs %d", a.ExecTime, b.ExecTime)
	}
	if a.Messages != b.Messages {
		t.Fatalf("nondeterministic traffic:\n%v\n%v", a.Messages, b.Messages)
	}
	if a.Breakdown != b.Breakdown {
		t.Fatalf("nondeterministic breakdown:\n%v\n%v", &a.Breakdown, &b.Breakdown)
	}
}

func TestWarmupClearsStatistics(t *testing.T) {
	var data mem.Region
	p := &prog{
		name:   "warm",
		warmup: 1,
		setup: func(m *Machine) {
			data = m.Layout().AllocInterleaved("data", 32*mem.BlockSize)
		},
		kernel: func(p *cpu.Proc) {
			// Heavy traffic during init, light after.
			for i := 0; i < 32; i++ {
				p.Write(data.Addr(uint64(i) * mem.BlockSize))
			}
			p.Barrier() // end of warm-up
			p.Compute(500)
		},
	}
	r := New(small(Config{Consistency: proto.SC}, 2)).Run(p)
	mustClean(t, r)
	if r.ExecTime < 500 || r.ExecTime > 600 {
		t.Fatalf("measured exec time = %d, want ≈ 500 (init excluded)", r.ExecTime)
	}
	if got := r.Breakdown.Cycles[stats.WriteOther] + r.Breakdown.Cycles[stats.WriteInval]; got != 0 {
		t.Fatalf("write stall cycles leaked into the measured region: %d", got)
	}
	if r.Messages.Total() != 0 {
		t.Fatalf("messages leaked into the measured region: %d", r.Messages.Total())
	}
	if r.TotalTime <= r.ExecTime {
		t.Fatal("total time should exceed the measured region")
	}
}

// deadlockProg never finishes: every processor but 0 waits at a barrier
// that processor 0 never reaches.
func deadlockProg() *prog {
	return &prog{
		name: "deadlock",
		kernel: func(p *cpu.Proc) {
			if p.ID() != 0 {
				p.Barrier() // proc 0 never arrives
			}
		},
	}
}

func TestDeadlockDetected(t *testing.T) {
	r := New(small(Config{Consistency: proto.SC}, 3)).Run(deadlockProg())
	if !r.Failed() {
		t.Fatal("deadlock not reported")
	}
}

// TestDeadlockedRunsReleaseKernels checks that a run that ends with kernels
// blocked mid-operation leaves no goroutine behind: the machine stops and
// joins each stuck kernel, still reports the run as failed, and reuses the
// processors. Ten such runs on one machine (deadlocks, and runs whose event
// budget expires before every kernel has even started) must bring the
// goroutine count back to its baseline, and the machine must then reproduce
// a fresh machine's result.
func TestDeadlockedRunsReleaseKernels(t *testing.T) {
	cfg := small(Config{Consistency: proto.SC}, 3)
	want := New(cfg).Run(shareProg(200))
	mustClean(t, want)

	base := runtime.NumGoroutine()
	m := New(cfg)
	for i := 0; i < 10; i++ {
		if i%2 == 1 {
			short := cfg
			short.MaxSteps = 1 // expires inside processor 0's first operation
			m.Reset(short)
			if r := m.Run(shareProg(200)); !r.Failed() {
				t.Fatalf("run %d: expired event budget not reported", i)
			}
			continue
		}
		m.Reset(cfg)
		r := m.Run(deadlockProg())
		stuck := 0
		for _, e := range r.Errors {
			if strings.Contains(e, "deadlocked") {
				stuck++
			}
		}
		if stuck != 2 {
			t.Fatalf("run %d reported %d deadlocked processors, want 2:\n%s", i, stuck, strings.Join(r.Errors, "\n"))
		}
	}
	// Join returns once a kernel goroutine has sent its exit token, a few
	// instructions before the goroutine is gone; wait for those to finish.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after ten stuck runs, %d before: stuck kernels leaked", n, base)
	}

	m.Reset(cfg)
	if got := m.Run(shareProg(200)); !reflect.DeepEqual(got, want) {
		t.Fatalf("machine reused after stuck runs diverged:\nfresh:  %+v\nreused: %+v", want, got)
	}
}

// syncProg builds a program whose kernels park in every kind of wait. Each
// processor reads a block the others share and buffers a store to it, so
// its lock acquire (drain, swap, self-invalidation) first waits for the
// store's upgrade; it then buffers a second store inside the critical
// section, which its release (drain, releasing store, self-invalidation)
// waits for, and joins a barrier (drain, self-invalidation, arrival).
func syncProg() *prog {
	var data, lock mem.Region
	return &prog{
		name: "sync",
		setup: func(m *Machine) {
			data = m.Layout().AllocInterleaved("data", mem.BlockSize)
			lock = m.Layout().AllocInterleaved("lock", mem.BlockSize)
		},
		kernel: func(p *cpu.Proc) {
			p.Read(data.Addr(0))
			p.WriteWord(data.Addr(uint64(p.ID())*8), 1)
			p.Lock(lock.Addr(0))
			p.WriteWord(data.Addr(uint64(p.ID())*8), 2)
			p.Unlock(lock.Addr(0))
			p.Barrier()
		},
	}
}

// TestTruncatedRunsReleaseKernels cuts one run short after every possible
// number of events, so each truncated run leaves the kernels parked wherever
// that event finds them: not yet started, inside a write-buffer drain, a
// swap, a self-invalidation, or at the barrier. Every truncated run must
// fail and release its kernels without leaking a goroutine, and the reused
// machine must then reproduce a fresh machine's full run.
func TestTruncatedRunsReleaseKernels(t *testing.T) {
	w, err := proto.LabelOf("W+DSI")
	if err != nil {
		t.Fatal(err)
	}
	cfg := small(Config{Consistency: w.Consistency, Policy: w.Policy}, 3)
	want := New(cfg).Run(syncProg())
	mustClean(t, want)
	if want.Breakdown.Cycles[stats.SyncWB] == 0 {
		t.Fatal("no kernel ever waited in a write-buffer drain")
	}

	base := runtime.NumGoroutine()
	m := New(cfg)
	for steps := uint64(1); steps < want.Kernel.Events; steps++ {
		short := cfg
		short.MaxSteps = steps
		m.Reset(short)
		if r := m.Run(syncProg()); !r.Failed() {
			t.Fatalf("run cut after %d of %d events did not fail", steps, want.Kernel.Events)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after %d truncated runs, %d before: kernels leaked", n, want.Kernel.Events-1, base)
	}

	m.Reset(cfg)
	if got := m.Run(syncProg()); !reflect.DeepEqual(got, want) {
		t.Fatalf("machine reused after truncated runs diverged:\nfresh:  %+v\nreused: %+v", want, got)
	}
}

// TestEventPanicFailsRun checks that an event that panics fails the run with
// a named error on the caller's goroutine, both while kernels are parked
// mid-operation (t=50) and after every kernel has halted (t=5000). The
// parked kernels are released, no goroutine is left behind, and the machine
// then reproduces a fresh machine's result.
func TestEventPanicFailsRun(t *testing.T) {
	cfg := small(Config{Consistency: proto.SC}, 3)
	want := New(cfg).Run(shareProg(200))
	mustClean(t, want)

	base := runtime.NumGoroutine()
	m := New(cfg)
	for _, c := range []struct {
		at     event.Time
		halted bool // every kernel has halted when the event panics
	}{{50, false}, {5000, true}} {
		var halted bool
		prog := shareProg(20)
		setup := prog.setup
		prog.setup = func(m *Machine) {
			setup(m)
			m.q.At(c.at, func() {
				halted = true
				for _, p := range m.procs {
					halted = halted && p.Done()
				}
				panic("boom")
			})
		}
		m.Reset(cfg)
		r := m.Run(prog)
		wantErr := fmt.Sprintf("t=%d: event panicked: boom", c.at)
		if !r.Failed() || !slices.Contains(r.Errors, wantErr) {
			t.Fatalf("t=%d: run errors %q, want %q among them", c.at, r.Errors, wantErr)
		}
		if halted != c.halted {
			t.Fatalf("t=%d: every kernel halted = %v when the event ran, want %v", c.at, halted, c.halted)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("t=%d: %d goroutines after the panicked run, %d before: kernels leaked", c.at, n, base)
		}
		m.Reset(cfg)
		if got := m.Run(shareProg(200)); !reflect.DeepEqual(got, want) {
			t.Fatalf("t=%d: machine reused after the panicked run diverged:\nfresh:  %+v\nreused: %+v", c.at, want, got)
		}
	}
}

// TestConcurrentMachinesMatchSerial runs machines of two shapes from four
// goroutines at once, through one Pool, so kernel coroutines and machines
// both move between goroutines. Every run must equal its shape's serial
// result.
func TestConcurrentMachinesMatchSerial(t *testing.T) {
	shapes := []Config{
		small(Config{Consistency: proto.SC}, 3),
		small(Config{Consistency: proto.WC, Policy: core.Policy{Identifier: core.Versions{}, TearOff: true}}, 5),
	}
	want := make([]Result, len(shapes))
	for i, cfg := range shapes {
		want[i] = New(cfg).Run(shareProg(300))
		mustClean(t, want[i])
	}
	var (
		pool Pool
		wg   sync.WaitGroup
	)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 6 {
				s := (g + i) % len(shapes)
				m := pool.Get(shapes[s])
				got := m.Run(shareProg(300))
				pool.Put(m)
				if !reflect.DeepEqual(got, want[s]) {
					t.Errorf("goroutine %d run %d (shape %d) diverged from the serial run:\nserial:     %+v\nconcurrent: %+v", g, i, s, want[s], got)
				}
			}
		}()
	}
	wg.Wait()
}

func TestKernelAssertSurfacesAsError(t *testing.T) {
	p := &prog{
		name:   "assert",
		kernel: func(p *cpu.Proc) { p.Assert(false, "boom %d", p.ID()) },
	}
	r := New(small(Config{Consistency: proto.SC}, 2)).Run(p)
	if !r.Failed() {
		t.Fatal("assertion did not surface")
	}
}

func TestTearOffRequiresWC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tear-off under SC did not panic")
		}
	}()
	New(Config{Consistency: proto.SC, Policy: core.Policy{Identifier: core.Versions{}, TearOff: true}})
}

// Migratory data: each processor in turn updates every block; DSI's marked
// exclusive blocks must carry values intact around the ring.
func TestMigratoryRingAllConfigs(t *testing.T) {
	for name, cfg := range configs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			var data mem.Region
			const blocks = 8
			p := &prog{
				name: "ring",
				setup: func(m *Machine) {
					data = m.Layout().AllocInterleaved("ring", blocks*mem.BlockSize)
				},
				kernel: func(p *cpu.Proc) {
					for turn := 0; turn < p.N(); turn++ {
						if turn == p.ID() {
							for i := 0; i < blocks; i++ {
								a := data.Addr(uint64(i) * mem.BlockSize)
								v := p.Read(a)
								p.WriteWord(a, v.Word+1)
							}
						}
						p.Barrier()
					}
					if p.ID() == 0 {
						for i := 0; i < blocks; i++ {
							v := p.Read(data.Addr(uint64(i) * mem.BlockSize))
							p.Assert(v.Word == uint64(p.N()), "block %d word %d", i, v.Word)
						}
					}
				},
			}
			r := New(small(cfg, 4)).Run(p)
			mustClean(t, r)
		})
	}
}

// ExecTime must scale with network latency for a communication-bound
// program.
func TestNetworkLatencySensitivity(t *testing.T) {
	run := func(lat event.Time) event.Time {
		var data mem.Region
		p := &prog{
			name: "lat",
			setup: func(m *Machine) {
				data = m.Layout().AllocInterleaved("d", 16*mem.BlockSize)
			},
			kernel: func(p *cpu.Proc) {
				for r := 0; r < 3; r++ {
					if p.ID() == 0 {
						for i := 0; i < 16; i++ {
							p.Write(data.Addr(uint64(i) * mem.BlockSize))
						}
					}
					p.Barrier()
					for i := 0; i < 16; i++ {
						p.Read(data.Addr(uint64(i) * mem.BlockSize))
					}
					p.Barrier()
				}
			},
		}
		cfg := small(Config{Consistency: proto.SC}, 4)
		cfg.NetworkLatency = lat
		r := New(cfg).Run(p)
		mustClean(t, r)
		return r.ExecTime
	}
	fast, slow := run(100), run(1000)
	if slow <= fast*2 {
		t.Fatalf("1000-cycle network (%d) not much slower than 100-cycle (%d)", slow, fast)
	}
}
