package dsisim

import "testing"

// TestNilSinkAllocsUnchanged is the allocation gate of the simulation kernel:
// with no coherence sink attached, a warm full simulation of each tracked
// cell (test scale, 8 processors) may allocate at most its budget. The
// cells are em3d under V (the invalidation hot path), ocean under W+DSI (the
// tear-off/DSI hot path) and zipf under V (the skewed-popularity traffic
// mix). Allocation counts are deterministic, so each budget is the exact
// count, not a noise band: the observability layer, or any kernel change,
// may not add a single steady-state allocation (DESIGN.md §6).
func TestNilSinkAllocsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full runs")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold only for plain builds")
	}
	cells := []struct {
		workload string
		protocol Protocol
		budget   float64
	}{
		{"em3d", V, 58},
		{"ocean", WDSI, 91},
		{"zipf", V, 69},
	}
	// Absolute ceiling over every cell: with the block tables and machine
	// pool in place, a warm run's allocations are the per-run constant
	// (workload setup, result assembly), not a function of simulated work.
	const warmRunCap = 128
	for _, c := range cells {
		t.Run(c.workload+"/"+string(c.protocol), func(t *testing.T) {
			cfg := Config{Workload: c.workload, Scale: ScaleTest, Protocol: c.protocol, Processors: 8}
			// Warm up before measuring: lazily grown state (the network's
			// pooled delivery records widen their batch slices over the first
			// runs, first-use scheduler structures) amortizes to zero and must
			// not be charged to the steady state. ocean/W+DSI settles after
			// about 15 runs, em3d/V after 8, zipf/V after one.
			for range 20 {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			if avg > c.budget {
				t.Fatalf("nil-sink run allocates %.0f/op, budget %.0f — a steady-state allocation leaked onto the hot path", avg, c.budget)
			}
			if avg > warmRunCap {
				t.Fatalf("warm run allocates %.0f/op, cap %d — map-free/pooled steady state regressed", avg, warmRunCap)
			}
			t.Logf("%.0f allocs/op (budget %.0f)", avg, c.budget)
		})
	}
}

// TestSinkAttachedStillDeterministic double-checks the other half of the
// contract from the facade level: attaching a sink records events without
// changing simulated time.
func TestSinkAttachedStillDeterministic(t *testing.T) {
	cfg := Config{Workload: "em3d", Scale: ScaleTest, Protocol: V, Processors: 8}
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = NewCoherenceSink()
	obsd, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.TotalTime != obsd.TotalTime {
		t.Fatalf("sink changed timing: %d != %d cycles", bare.TotalTime, obsd.TotalTime)
	}
	if cfg.Sink.Len() == 0 {
		t.Fatal("sink recorded nothing")
	}
	if obsd.Blocks == nil || obsd.Blocks.Transactions == 0 {
		t.Fatal("Result.Blocks metrics missing")
	}
	if bare.Blocks != nil {
		t.Fatal("Result.Blocks set without a sink")
	}
}
