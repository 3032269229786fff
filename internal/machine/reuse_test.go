package machine

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"dsisim/internal/cpu"
	"dsisim/internal/mem"
	"dsisim/internal/obs"
	"dsisim/internal/proto"
)

// shareProg builds a test program in which every processor streams reads and
// writes over a shared region, generating misses, invalidations, and
// writebacks in proportion to ops.
func shareProg(ops int) *prog {
	return &prog{
		name:  "share",
		setup: func(m *Machine) { m.Layout().AllocInterleaved("share", 64*mem.BlockSize) },
		kernel: func(p *cpu.Proc) {
			for i := 0; i < ops; i++ {
				a := mem.Addr((uint64(i+p.ID()) * 8) % (64 * mem.BlockSize))
				if i%4 == 3 {
					p.WriteWord(a, uint64(i))
				} else {
					p.Read(a)
				}
			}
		},
	}
}

// TestResetReuseBitIdentical is the reuse contract at the machine level: a
// Reset machine must reproduce a fresh machine's result exactly.
func TestResetReuseBitIdentical(t *testing.T) {
	cfg := small(Config{Consistency: proto.SC}, 4)
	fresh := New(cfg).Run(shareProg(500))
	mustClean(t, fresh)

	m := New(cfg)
	mustClean(t, m.Run(shareProg(500)))
	m.Reset(cfg)
	reused := m.Run(shareProg(500))
	mustClean(t, reused)
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("reused machine diverged:\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
}

// TestPoolRecyclesByShape checks that the idle list hands back a parked
// machine only when the requested configuration matches its immutable
// shape, and that Run parks the machine it ran on.
func TestPoolRecyclesByShape(t *testing.T) {
	cfg := small(Config{Consistency: proto.SC}, 4)
	m := acquire(cfg)
	mustClean(t, m.Run(shareProg(100)))
	park(m)
	if got := acquire(cfg); got != m {
		t.Fatal("same-shape acquire did not recycle the parked machine")
	}
	park(m)
	other := small(Config{Consistency: proto.SC}, 8)
	if got := acquire(other); got == m {
		t.Fatal("acquire recycled a machine with the wrong processor count")
	}
	mustClean(t, Run(cfg, shareProg(100)))
	if got := acquire(cfg); got != m {
		t.Fatal("Run did not park the machine it ran on")
	}
}

// TestIdleListDropsOldest fills the idle list past its bound: the oldest
// parked machine is dropped, and no slot past the list's end keeps a
// dropped or taken machine reachable.
func TestIdleListDropsOldest(t *testing.T) {
	idle.Lock()
	saved := idle.machines
	idle.machines = nil
	idle.Unlock()
	defer func() {
		idle.Lock()
		idle.machines = saved
		idle.Unlock()
	}()
	cfg := small(Config{Consistency: proto.SC}, 2)
	limit := poolCap * runtime.GOMAXPROCS(0)
	parked := make([]*Machine, limit+1)
	for i := range parked {
		parked[i] = New(cfg)
		park(parked[i])
	}
	if len(idle.machines) != limit || slices.Contains(idle.machines, parked[0]) {
		t.Fatalf("after parking %d machines: %d idle, oldest kept %v; want %d, oldest dropped",
			len(parked), len(idle.machines), slices.Contains(idle.machines, parked[0]), limit)
	}
	acquire(cfg)
	for _, m := range idle.machines[len(idle.machines):cap(idle.machines)] {
		if m != nil {
			t.Fatal("a slot past the idle list's end still holds a machine")
		}
	}
}

// TestParkedMachineDropsSink runs a machine with a coherence-event sink
// through Run: once the caller drops the sink, the parked machine must not
// keep it reachable.
func TestParkedMachineDropsSink(t *testing.T) {
	sk := obs.NewSink()
	collected := make(chan struct{})
	runtime.SetFinalizer(sk, func(*obs.Sink) { close(collected) })
	cfg := small(Config{Consistency: proto.SC, Sink: sk}, 4)
	mustClean(t, Run(cfg, shareProg(100)))
	sk, cfg.Sink = nil, nil
	for range 20 {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatal("the parked machine keeps its last run's sink reachable")
}

// TestWarmRunEventPathAllocFree pins the steady-state allocation contract: on
// a warm (Reset) machine, a full Run's allocations must not scale with the
// number of simulated operations — the event path itself allocates nothing.
// Only the per-run constant (program setup, result assembly) remains.
func TestWarmRunEventPathAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full runs")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold only for plain builds")
	}
	cfg := small(Config{Consistency: proto.SC}, 4)
	m := New(cfg)
	// Warm with the largest run so every pool and buffer reaches its
	// high-water mark before measurement.
	mustClean(t, m.Run(shareProg(8000)))

	measure := func(ops int) float64 {
		prog := shareProg(ops)
		return testing.AllocsPerRun(3, func() {
			m.Reset(cfg)
			r := m.Run(prog)
			if r.Failed() {
				t.Fatal(r.Errors[0])
			}
		})
	}
	smallRun := measure(500)
	largeRun := measure(8000)
	if largeRun > smallRun+32 {
		t.Fatalf("allocations scale with operation count: %0.f allocs at 500 ops vs %0.f at 8000 ops",
			smallRun, largeRun)
	}
	if smallRun > 128 {
		t.Fatalf("warm run allocates %0.f objects; the per-run constant should be well under 128", smallRun)
	}
}
