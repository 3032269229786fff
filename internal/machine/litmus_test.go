package machine

import (
	"testing"

	"dsisim/internal/core"
	"dsisim/internal/cpu"
	"dsisim/internal/mem"
	"dsisim/internal/proto"
)

// Litmus tests: classic two-processor memory-model shapes, run across many
// relative timings. The simulator's SC configurations must never produce a
// non-SC outcome; the WC configurations must still be correct for properly
// synchronized variants.

// scConfigs are all sequentially consistent protocol variants.
func scConfigs() map[string]Config {
	return map[string]Config{
		"sc":          {Consistency: proto.SC},
		"sc-states":   {Consistency: proto.SC, Policy: core.Policy{Identifier: core.States, UpgradeExemption: true}},
		"sc-versions": {Consistency: proto.SC, Policy: core.Policy{Identifier: core.Versions, UpgradeExemption: true}},
		"sc-tearoff": {Consistency: proto.SC, Policy: core.Policy{
			Identifier: core.Versions, SCTearOff: true, UpgradeExemption: true}},
		"sc-migratory": {Consistency: proto.SC, Policy: core.Policy{Migratory: true}},
	}
}

// litmusMP is the message-passing shape: P0 writes data then flag; P1 spins
// on the flag (via swap, the memory-system-visible sync access) and reads
// data. Under SC — and under any configuration that preserves the paper's
// semantics — P1 must observe the data write.
func litmusMP(t *testing.T, cfg Config, skew int64) {
	var data, flag mem.Region
	p := &prog{
		name: "mp",
		setup: func(m *Machine) {
			data = m.Layout().AllocInterleaved("data", mem.BlockSize)
			flag = m.Layout().AllocInterleaved("flag", mem.BlockSize)
		},
		kernel: func(p *cpu.Proc) {
			switch p.ID() {
			case 0:
				p.Compute(int64(1 + skew))
				p.WriteWord(data.Addr(0), 42)
				p.WriteWord(flag.Addr(0), 1)
			case 1:
				// Spin on the flag with plain reads: invalidation
				// propagation must make the new value visible (the copy is
				// tracked — it was fetched before any conflicting write, so
				// no DSI variant hands it out tear-off).
				for p.Read(flag.Addr(0)).Word != 1 {
					p.Compute(30)
				}
				v := p.Read(data.Addr(0))
				if v.Word != 42 {
					p.Failf("mp: read %d after flag", v.Word)
				}
			}
		},
	}
	r := New(small(cfg, 2)).Run(p)
	if r.Failed() {
		t.Fatalf("skew %d: %s", skew, r.Errors[0])
	}
}

func TestLitmusMessagePassing(t *testing.T) {
	for name, cfg := range scConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for skew := int64(0); skew < 400; skew += 37 {
				litmusMP(t, cfg, skew)
			}
		})
	}
}

// Under WC the same shape is correct because the flag spin uses swap (a
// synchronization access that drains the writer's buffer order is
// established by the flag's own propagation) — plus the reader's swap
// flushes its stale tear-off copies before the data read.
func TestLitmusMessagePassingWC(t *testing.T) {
	cfgs := map[string]Config{
		"wc":         {Consistency: proto.WC},
		"wc-tearoff": {Consistency: proto.WC, Policy: core.Policy{Identifier: core.Versions, TearOff: true}},
	}
	for name, cfg := range cfgs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for skew := int64(0); skew < 400; skew += 37 {
				var data, flag mem.Region
				p := &prog{
					name: "mp-wc",
					setup: func(m *Machine) {
						data = m.Layout().AllocInterleaved("data", mem.BlockSize)
						flag = m.Layout().AllocInterleaved("flag", mem.BlockSize)
					},
					kernel: func(p *cpu.Proc) {
						switch p.ID() {
						case 0:
							p.Compute(1 + skew)
							p.WriteWord(data.Addr(0), 42)
							// Publish with a swap: drains the write buffer
							// first, so data is globally visible before the
							// flag (release semantics). The published value
							// (2) is distinct from the spinner's swap-in (1).
							p.Swap(flag.Addr(0), 2)
						case 1:
							// Swap-spin: each attempt is a sync access, so a
							// stale tear-off copy of the flag can never wedge
							// the loop (§3.3 forward-progress hazard).
							for p.Swap(flag.Addr(0), 1) != 2 {
								p.Compute(30)
							}
							v := p.Read(data.Addr(0))
							if v.Word != 42 {
								p.Failf("mp-wc: read %d after flag", v.Word)
							}
						}
					},
				}
				r := New(small(cfg, 2)).Run(p)
				if r.Failed() {
					t.Fatalf("skew %d: %s", skew, r.Errors[0])
				}
			}
		})
	}
}

// litmusSB is the store-buffering shape done with swaps: both processors
// swap their own flag then read the other's. Under SC at least one must see
// the other's write (the interleaving argument); both reading zero is the
// forbidden weak outcome.
func TestLitmusStoreBuffering(t *testing.T) {
	for name, cfg := range scConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for skew := int64(0); skew < 300; skew += 41 {
				var x, y mem.Region
				got := make([]uint64, 2)
				p := &prog{
					name: "sb",
					setup: func(m *Machine) {
						x = m.Layout().AllocInterleaved("x", mem.BlockSize)
						y = m.Layout().AllocInterleaved("y", mem.BlockSize)
					},
					kernel: func(p *cpu.Proc) {
						mine, theirs := x, y
						if p.ID() == 1 {
							mine, theirs = y, x
							p.Compute(skew)
						}
						p.WriteWord(mine.Addr(0), 1)
						got[p.ID()] = p.Read(theirs.Addr(0)).Word
					},
				}
				r := New(small(cfg, 2)).Run(p)
				if r.Failed() {
					t.Fatalf("skew %d: %s", skew, r.Errors[0])
				}
				if got[0] == 0 && got[1] == 0 {
					t.Fatalf("%s skew %d: both processors read 0 — store buffering under SC", name, skew)
				}
			}
		})
	}
}

// Dekker-style mutual exclusion via the lock primitive under every SC
// variant and every skew.
func TestLitmusLockHandoff(t *testing.T) {
	for name, cfg := range scConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for skew := int64(0); skew < 200; skew += 67 {
				var lock, data mem.Region
				p := &prog{
					name: "handoff",
					setup: func(m *Machine) {
						lock = m.Layout().AllocInterleaved("lock", mem.BlockSize)
						data = m.Layout().AllocInterleaved("data", mem.BlockSize)
					},
					kernel: func(p *cpu.Proc) {
						if p.ID() == 1 {
							p.Compute(skew)
						}
						for i := 0; i < 3; i++ {
							p.Lock(lock.Addr(0))
							v := p.Read(data.Addr(0))
							p.Compute(25)
							p.WriteWord(data.Addr(0), v.Word+1)
							p.Unlock(lock.Addr(0))
						}
						p.Barrier()
						if p.ID() == 0 {
							v := p.Read(data.Addr(0))
							if v.Word != 6 {
								p.Failf("handoff: %d", v.Word)
							}
						}
					},
				}
				r := New(small(cfg, 2)).Run(p)
				if r.Failed() {
					t.Fatalf("%s skew %d: %s", name, skew, r.Errors[0])
				}
			}
		})
	}
}
