package soak

import (
	"path/filepath"
	"testing"

	"dsisim/internal/faultinj"
	"dsisim/internal/simcache"
)

// TestSpecRoundTripKey pins the corpus ↔ cache-key contract: a failure spec
// persisted by the triage pipeline, saved to disk, and reloaded runs under
// the same simcache key as the originating campaign cell. A service can
// therefore answer "has this corpus entry's cell been simulated?" from the
// cache without re-deriving campaign state. Both keys come from the one run
// path: the reloaded spec's run is served from the entry the cell's run
// stored.
func TestSpecRoundTripKey(t *testing.T) {
	space := Space{
		Workloads: []string{"zipf"},
		Protocols: ProtocolsByName("W+DSI"),
		Templates: []Template{{Name: "storm", Faults: &faultinj.Config{
			Drop: 0.02, Dup: 0.02, Delay: 0.1, Jitter: 48,
			DropByKind: map[int]float64{2: 0.5, 4: 0.125},
			DropByLink: []faultinj.LinkDrop{{Src: 1, Dst: 2, Prob: 0.25}, {Src: 0, Dst: 3, Prob: 0.125}},
			Rules:      []faultinj.Rule{{Kind: 1, Src: -1, Dst: -1, Nth: 2, Action: faultinj.Drop}},
		}}},
	}
	cell := space.Cell(42, 0)
	spec := specOf(cell)
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := SaveSpec(spec, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}

	cache := simcache.New(0)
	events, cycles, hit, err := spec.run(cache, nil, false)
	if err != nil || hit {
		t.Fatalf("originating cell: hit %v, err %v; want a computed passing run", hit, err)
	}
	revents, rcycles, rhit, err := loaded.run(cache, nil, false)
	if err != nil || !rhit {
		t.Fatalf("reloaded spec: hit %v, err %v; want the originating cell's cache entry", rhit, err)
	}
	if revents != events || rcycles != cycles {
		t.Fatalf("reloaded spec served %d events %d cycles, the cell ran %d and %d", revents, rcycles, events, cycles)
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("cache stats %+v, want one miss then one hit", s)
	}
}

// TestRunSharedCache runs the same registry-only campaign twice against one
// caller-owned cache: the second sitting must serve every cell from the
// cache with verdict payloads identical to the first, and litmus cells (no
// canonical request key) must never be cached.
func TestRunSharedCache(t *testing.T) {
	cache := simcache.New(64 << 20)
	space := Space{
		Workloads: []string{"zipf", LitmusWorkload},
		Protocols: ProtocolsByName("SC", "V"),
		Templates: DefaultTemplates()[:2], // none + lossy
		Reps:      2,
	}
	o := Options{Space: space, Seed: 7, Workers: 2, Cache: cache}
	first, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Verdicts) != len(second.Verdicts) {
		t.Fatalf("verdict counts differ: %d vs %d", len(first.Verdicts), len(second.Verdicts))
	}
	for i, v2 := range second.Verdicts {
		v1 := first.Verdicts[i]
		if v2.Workload == LitmusWorkload {
			if v1.Cached || v2.Cached {
				t.Fatalf("cell %d: litmus cell marked cached", v2.Cell)
			}
			continue
		}
		if v1.Cached {
			t.Fatalf("cell %d: first sitting hit a cold cache", v1.Cell)
		}
		if v1.Status == StatusOK && !v2.Cached {
			t.Fatalf("cell %d: second sitting missed a warm cache", v2.Cell)
		}
		v2.Cached = v1.Cached
		if v1 != v2 {
			t.Fatalf("cell %d: cached verdict differs from computed:\n%+v\n%+v", v2.Cell, v1, v2)
		}
	}
	s := cache.Stats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("cache never engaged: %+v", s)
	}
}
