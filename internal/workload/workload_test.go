package workload

import (
	"sort"
	"testing"

	"dsisim/internal/core"
	"dsisim/internal/machine"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/proto"
)

// testConfigs covers the protocol space every workload must run correctly
// under. Kernel assertions (generation words, lock-protected counters)
// turn each run into an end-to-end coherence check.
func testConfigs() map[string]machine.Config {
	return map[string]machine.Config{
		"sc":        {Consistency: proto.SC},
		"sc-states": {Consistency: proto.SC, Policy: core.Policy{Identifier: core.States{}, UpgradeExemption: true}},
		"sc-versions-fifo": {Consistency: proto.SC, Policy: core.Policy{
			Identifier:       core.Versions{},
			NewMechanism:     func() core.Mechanism { return core.NewFIFO(16) },
			UpgradeExemption: true,
		}},
		"wc":         {Consistency: proto.WC},
		"wc-tearoff": {Consistency: proto.WC, Policy: core.Policy{Identifier: core.Versions{}, TearOff: true}},
		"sc-tearoff": {Consistency: proto.SC, Policy: core.Policy{
			Identifier: core.Versions{}, SCTearOff: true, UpgradeExemption: true}},
		"sc-migratory": {Consistency: proto.SC, Policy: core.Policy{Migratory: true}},
		"sc-migratory-dsi": {Consistency: proto.SC, Policy: core.Policy{
			Migratory: true, Identifier: core.Versions{}, UpgradeExemption: true}},
		"sc-history": {Consistency: proto.SC, Policy: core.Policy{
			NewHistory: func() *core.InvalHistory { return core.NewInvalHistory(64, 2) }}},
	}
}

func runOne(t *testing.T, name string, cfg machine.Config, procs, cacheBytes int) machine.Result {
	t.Helper()
	w, err := New(name, ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Processors = procs
	cfg.CacheBytes = cacheBytes
	cfg.CacheAssoc = 4
	r := machine.New(cfg).Run(w)
	if r.Failed() {
		t.Fatalf("%s under this config failed: %s", name, r.Errors[0])
	}
	return r
}

func TestAllWorkloadsAllConfigs(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for cname, cfg := range testConfigs() {
				cfg := cfg
				t.Run(cname, func(t *testing.T) {
					runOne(t, name, cfg, 8, 64*mem.BlockSize*4)
				})
			}
		})
	}
}

// Tiny caches force eviction storms through every workload.
func TestAllWorkloadsTinyCache(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			runOne(t, name, machine.Config{
				Consistency: proto.WC,
				Policy:      core.Policy{Identifier: core.Versions{}, TearOff: true},
			}, 4, 8*mem.BlockSize)
		})
	}
}

// Test-scale inputs are small enough that past 16 processors some
// partitions come out empty; every workload must still run there.
func TestAllWorkloadsManyProcs(t *testing.T) {
	for _, name := range Names() {
		for _, procs := range []int{17, 32, 64} {
			runOne(t, name, machine.Config{Consistency: proto.SC}, procs, 0)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := New("nosuch", ScaleTest); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) != 14 {
		t.Fatalf("registry has %d workloads: %v", len(names), names)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, n := range PaperNames() {
		if _, err := New(n, ScaleTest); err != nil {
			t.Fatalf("paper workload %q missing: %v", n, err)
		}
	}
	for _, n := range TrafficNames() {
		if _, err := New(n, ScaleTest); err != nil {
			t.Fatalf("traffic workload %q missing: %v", n, err)
		}
	}
}

func TestScaleString(t *testing.T) {
	cases := map[Scale]string{ScalePaper: "paper", ScaleTest: "test", Scale(7): "Scale(7)"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("Scale(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// Workloads must be deterministic: identical runs, identical results.
func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range []string{"em3d", "barnes", "sparse", "zipf", "prodring", "lockconvoy", "openloop"} {
		name := name
		t.Run(name, func(t *testing.T) {
			a := runOne(t, name, machine.Config{Consistency: proto.SC,
				Policy: core.Policy{Identifier: core.Versions{}, UpgradeExemption: true}}, 4, 64*mem.BlockSize*4)
			b := runOne(t, name, machine.Config{Consistency: proto.SC,
				Policy: core.Policy{Identifier: core.Versions{}, UpgradeExemption: true}}, 4, 64*mem.BlockSize*4)
			if a.ExecTime != b.ExecTime || a.Messages != b.Messages {
				t.Fatalf("nondeterministic: %d/%d msgs %d/%d",
					a.ExecTime, b.ExecTime, a.Messages.Total(), b.Messages.Total())
			}
		})
	}
}

// The sharing structure must match each benchmark's description.
func TestSparseIsInvalidationHeavyUnderBase(t *testing.T) {
	r := runOne(t, "sparse", machine.Config{Consistency: proto.SC}, 8, 64*mem.BlockSize*4)
	if r.Messages.Invalidation() == 0 {
		t.Fatal("sparse produced no invalidation traffic under the base protocol")
	}
}

func TestReadSharedIsInvalidationFree(t *testing.T) {
	r := runOne(t, "readshared", machine.Config{Consistency: proto.SC}, 8, 64*mem.BlockSize*4)
	if inv := r.Messages.Invalidation(); inv != 0 {
		t.Fatalf("read-only sharing produced %d invalidation messages", inv)
	}
}

func TestDSIReducesSparseInvalidations(t *testing.T) {
	base := runOne(t, "sparse", machine.Config{Consistency: proto.SC}, 8, 64*mem.BlockSize*4)
	dsi := runOne(t, "sparse", machine.Config{
		Consistency: proto.SC,
		Policy:      core.Policy{Identifier: core.Versions{}, UpgradeExemption: true},
	}, 8, 64*mem.BlockSize*4)
	if dsi.Messages.Invalidation() >= base.Messages.Invalidation() {
		t.Fatalf("DSI did not reduce sparse invalidations: %d >= %d",
			dsi.Messages.Invalidation(), base.Messages.Invalidation())
	}
}

func TestTearOffReducesSparseMessages(t *testing.T) {
	base := runOne(t, "sparse", machine.Config{Consistency: proto.WC}, 8, 64*mem.BlockSize*4)
	dsi := runOne(t, "sparse", machine.Config{
		Consistency: proto.WC,
		Policy:      core.Policy{Identifier: core.Versions{}, TearOff: true},
	}, 8, 64*mem.BlockSize*4)
	if dsi.Messages.Invalidation() >= base.Messages.Invalidation() {
		t.Fatalf("tear-off did not cut invalidation messages: %d >= %d",
			dsi.Messages.Invalidation(), base.Messages.Invalidation())
	}
	if dsi.Messages.Total() >= base.Messages.Total() {
		t.Fatalf("tear-off did not cut total messages: %d >= %d",
			dsi.Messages.Total(), base.Messages.Total())
	}
}

// EM3D's writes happen at the home node: the base protocol's read
// invalidation time should be near zero (recalls are local).
func TestEM3DWritesAtHome(t *testing.T) {
	r := runOne(t, "em3d", machine.Config{Consistency: proto.SC}, 8, 64*mem.BlockSize*4)
	// All recalls must be local (owner == home): no Recall network traffic.
	if rc := r.Messages.ByKind[netsim.Recall]; rc != 0 {
		t.Fatalf("em3d generated %d remote recalls; writes should be home-local", rc)
	}
}
