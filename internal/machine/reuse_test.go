package machine

import (
	"reflect"
	"testing"

	"dsisim/internal/cpu"
	"dsisim/internal/mem"
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

// TestPoolRecyclesByShape checks that a Pool hands back a parked machine only
// when the requested configuration matches its immutable shape.
func TestPoolRecyclesByShape(t *testing.T) {
	var p Pool
	cfg := small(Config{Consistency: proto.SC}, 4)
	m := p.Get(cfg)
	mustClean(t, m.Run(shareProg(100)))
	p.Put(m)
	if got := p.Get(cfg); got != m {
		t.Fatal("same-shape Get did not recycle the parked machine")
	}
	p.Put(m)
	other := small(Config{Consistency: proto.SC}, 8)
	if got := p.Get(other); got == m {
		t.Fatal("Get recycled a machine with the wrong processor count")
	}
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
