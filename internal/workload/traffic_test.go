package workload

import (
	"testing"

	"dsisim/internal/core"
	"dsisim/internal/machine"
	"dsisim/internal/mem"
	"dsisim/internal/proto"
)

// The traffic-shaped generators must be bit-identical across runs: all
// randomness comes from the parameter seed via internal/rng, and the
// operation streams are precomputed in Setup.
func TestTrafficDeterminism(t *testing.T) {
	for _, name := range TrafficNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() machine.Result {
				return runOne(t, name, machine.Config{
					Consistency: proto.WC,
					Policy:      core.Policy{Identifier: core.Versions, TearOff: true},
				}, 8, 64*mem.BlockSize*4)
			}
			a, b := run(), run()
			if a.ExecTime != b.ExecTime || a.TotalTime != b.TotalTime ||
				a.Messages != b.Messages {
				t.Fatalf("nondeterministic: exec %d/%d total %d/%d msgs %d/%d",
					a.ExecTime, b.ExecTime, a.TotalTime, b.TotalTime,
					a.Messages.Total(), b.Messages.Total())
			}
		})
	}
}

// zipf's hot-writer/many-readers rounds are the invalidation fan-out case
// the generator exists to model: the base protocol must pay invalidations,
// and version-based DSI must cut them.
func TestZipfInvalidationProfile(t *testing.T) {
	base := runOne(t, "zipf", machine.Config{Consistency: proto.SC}, 8, 64*mem.BlockSize*4)
	if base.Messages.Invalidation() == 0 {
		t.Fatal("zipf produced no invalidation traffic under the base protocol")
	}
	dsi := runOne(t, "zipf", machine.Config{
		Consistency: proto.SC,
		Policy:      core.Policy{Identifier: core.Versions, UpgradeExemption: true},
	}, 8, 64*mem.BlockSize*4)
	if dsi.Messages.Invalidation() >= base.Messages.Invalidation() {
		t.Fatalf("DSI did not reduce zipf invalidations: %d >= %d",
			dsi.Messages.Invalidation(), base.Messages.Invalidation())
	}
}

// The presets must differ so ScaleTest actually shrinks the run.
func TestTrafficPresets(t *testing.T) {
	if p, q := ZipfScaled(ScalePaper), ZipfScaled(ScaleTest); p.Blocks <= q.Blocks {
		t.Fatalf("zipf paper blocks %d <= test blocks %d", p.Blocks, q.Blocks)
	}
	if p, q := ProdRingScaled(ScalePaper), ProdRingScaled(ScaleTest); p.Rounds <= q.Rounds {
		t.Fatalf("prodring paper rounds %d <= test rounds %d", p.Rounds, q.Rounds)
	}
	if p, q := LockConvoyScaled(ScalePaper), LockConvoyScaled(ScaleTest); p.Acquisitions <= q.Acquisitions {
		t.Fatalf("lockconvoy paper acquisitions %d <= test %d", p.Acquisitions, q.Acquisitions)
	}
	if p, q := OpenLoopScaled(ScalePaper), OpenLoopScaled(ScaleTest); p.WorkingSet <= q.WorkingSet {
		t.Fatalf("openloop paper working set %d <= test %d", p.WorkingSet, q.WorkingSet)
	}
}

// Degenerate processor counts must not wedge the generators (fan-out and
// writer-count clamps).
func TestTrafficTwoProcs(t *testing.T) {
	for _, name := range TrafficNames() {
		runOne(t, name, machine.Config{Consistency: proto.SC}, 2, 64*mem.BlockSize*4)
	}
}
