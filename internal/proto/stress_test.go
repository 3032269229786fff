package proto

import (
	"fmt"
	"testing"

	"dsisim/internal/core"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/rng"
)

// stressConfigs enumerates every protocol configuration the stress test
// exercises.
func stressConfigs() map[string]Config {
	return map[string]Config{
		"sc-base":     scCfg(),
		"sc-states":   dsiCfg(core.States),
		"sc-versions": dsiCfg(core.Versions),
		"sc-always": {Consistency: SC, Policy: core.Policy{
			Identifier: core.Always, UpgradeExemption: true}},
		"sc-fifo":    {Consistency: SC, Policy: core.Policy{Identifier: core.Versions, FIFO: 4}},
		"wc-base":    wcCfg(),
		"wc-tearoff": wcTearOffCfg(),
		"wc-always-tearoff": {Consistency: WC, WriteBufferEntries: 4,
			Policy: core.Policy{Identifier: core.Always, TearOff: true}},
		"sc-tearoff": {Consistency: SC, Policy: core.Policy{
			Identifier: core.Versions, SCTearOff: true, UpgradeExemption: true}},
		"sc-always-tearoff": {Consistency: SC, Policy: core.Policy{
			Identifier: core.Always, SCTearOff: true}},
		"sc-migratory": {Consistency: SC, Policy: core.Policy{Migratory: true}},
		"sc-migratory-dsi": {Consistency: SC, Policy: core.Policy{
			Migratory: true, Identifier: core.States, UpgradeExemption: true}},
		"sc-history": {Consistency: SC, Policy: core.Policy{History: 8}},
		"wc-migratory-tearoff": {Consistency: WC, WriteBufferEntries: 16,
			Policy: core.Policy{Migratory: true, Identifier: core.Versions, TearOff: true}},
		"sc-limited2": {Consistency: SC, SharerLimit: 2},
		"sc-limited2-dsi": {Consistency: SC, SharerLimit: 2,
			Policy: core.Policy{Identifier: core.Versions, UpgradeExemption: true}},
		"wc-limited3-tearoff": {Consistency: WC, WriteBufferEntries: 8, SharerLimit: 3,
			Policy: core.Policy{Identifier: core.Versions, TearOff: true}},
	}
}

// The chaos test: random reads/writes/swaps/flushes from every node over a
// small block set and a tiny cache (maximum eviction pressure), checking
// that the system quiesces, every operation completes, and the directory
// and caches agree at the end.
func TestProtocolChaos(t *testing.T) {
	for name, cfg := range stressConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				runChaos(t, cfg, seed)
			}
		})
	}
}

func runChaos(t *testing.T, cfg Config, seed uint64) {
	t.Helper()
	const (
		nodes  = 6
		blocks = 8
		ops    = 400
	)
	r := newRig(t, rigOpts{
		nodes: nodes, cfg: cfg,
		cacheBytes: 2 * mem.BlockSize, assoc: 1, // brutal eviction pressure
	})
	rnd := rng.New(seed)
	completed := 0
	expected := 0
	// Each node issues a random op stream, one op at a time (issue-next on
	// completion) so SC's single-outstanding-miss rule holds.
	var issue func(node int, remaining int, seq uint64)
	issue = func(node int, remaining int, seq uint64) {
		if remaining == 0 {
			return
		}
		a := mem.Addr(1+rnd.Intn(blocks)) * mem.BlockSize
		next := func(*Result) {
			completed++
			// Small random think time keeps nodes out of lockstep.
			r.q.After(event.Time(rnd.Intn(50)), func() {
				issue(node, remaining-1, seq+1)
			})
		}
		expected++
		switch rnd.Intn(10) {
		case 0, 1, 2, 3:
			r.ccs[node].Read(a, next)
		case 4, 5, 6:
			r.ccs[node].Write(a, Store{Writer: node, Seq: seq}, next)
		case 7:
			// Synchronization accesses drain the write buffer first, per
			// the processor contract (internal/cpu does the same).
			cc := r.ccs[node]
			cc.DrainWB(func() {
				cc.Swap(a, uint64(node+1), Store{Writer: node, Seq: seq}, next)
			})
		default:
			cc := r.ccs[node]
			cc.DrainWB(func() { cc.SyncFlush(next) })
		}
	}
	for n := 0; n < nodes; n++ {
		n := n
		r.at(event.Time(n), func() { issue(n, ops, 1) })
	}
	r.run()
	if completed != expected {
		t.Fatalf("seed %d: %d of %d operations completed", seed, completed, expected)
	}
	auditQuiesced(t, r, seed)
}

// auditQuiesced checks directory/cache agreement once the system is idle.
func auditQuiesced(t *testing.T, r *rig, seed uint64) {
	t.Helper()
	for n, cc := range r.ccs {
		if cc.Outstanding() != 0 {
			t.Fatalf("seed %d: node %d still has %d outstanding", seed, n, cc.Outstanding())
		}
	}
	if r.net.InFlight() != 0 {
		t.Fatalf("seed %d: %d messages still in flight", seed, r.net.InFlight())
	}
	for _, dc := range r.dcs {
		if dc.BusyBlocks() != 0 {
			t.Fatalf("seed %d: home %d has busy blocks", seed, dc.Node())
		}
	}
	// One table holds every home's entries.
	r.dcs[0].ForEachEntry(func(b mem.Addr, e *directory.Entry, data *mem.Value) {
		if err := auditEntry(r, b, e, *data); err != nil {
			t.Fatalf("seed %d: block %#x: %v", seed, uint64(b), err)
		}
	})
}

func auditEntry(r *rig, b mem.Addr, e *directory.Entry, want mem.Value) error {
	// Collect who actually holds what.
	var holders, exclusives, tracked directory.NodeSet
	for n, cc := range r.ccs {
		f, ok := cc.Cache().Peek(b)
		if !ok {
			continue
		}
		holders = holders.Add(n)
		if f.State.String() == "Exclusive" {
			exclusives = exclusives.Add(n)
		}
		if !f.TearOff {
			tracked = tracked.Add(n)
		}
	}
	switch {
	case e.State == directory.Exclusive:
		if !exclusives.Only(e.Owner) {
			return fmt.Errorf("dir Exclusive owner %d but exclusive copies %v", e.Owner, exclusives)
		}
		if tracked != exclusives {
			return fmt.Errorf("tracked copies %v beyond the owner", tracked)
		}
	case e.State.IsShared():
		if !exclusives.Empty() {
			return fmt.Errorf("dir %v but exclusive copy exists at %v", e.State, exclusives)
		}
		if tracked != e.Sharers {
			return fmt.Errorf("dir sharers %v but tracked copies %v", e.Sharers, tracked)
		}
		// Every tracked copy agrees with home memory.
		for n := range r.ccs {
			if f, ok := r.ccs[n].Cache().Peek(b); ok && !f.TearOff && f.Data != want {
				return fmt.Errorf("node %d shared copy %v != memory %v", n, f.Data, want)
			}
		}
	case e.State.IsIdle():
		if !tracked.Empty() {
			return fmt.Errorf("dir idle (%v) but tracked copies at %v", e.State, tracked)
		}
	}
	return nil
}

// SWMR under maximal churn: at every quiesce, at most one writable copy per
// block — verified implicitly above, and here across all stress configs
// with larger caches (no eviction noise) to also check value propagation
// into swaps.
func TestSwapSerializesAcrossNodes(t *testing.T) {
	for name, cfg := range stressConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			r := newRig(t, rigOpts{nodes: 8, cfg: cfg})
			a := blockHomedAt(1, 8, 0)
			// Every node swaps in its id+1; each observed old word must be
			// the word some earlier swap wrote (or 0), and all distinct.
			results := make([]*Result, 8)
			for n := 0; n < 8; n++ {
				results[n] = r.swap(event.Time(n*3), n, a, uint64(n+1), 1)
			}
			r.run()
			seen := map[uint64]int{}
			for n, res := range results {
				mustDone(t, "swap", res)
				seen[res.OldWord]++
				_ = n
			}
			// 8 swaps: old words are 0 plus 7 of the 8 written words, all
			// distinct (a permutation chain).
			if len(seen) != 8 {
				t.Fatalf("old words not distinct: %v", seen)
			}
			if seen[0] != 1 {
				t.Fatalf("initial word 0 observed %d times, want once", seen[0])
			}
		})
	}
}
