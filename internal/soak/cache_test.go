package soak

import (
	"path/filepath"
	"testing"

	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/proto"
	"dsisim/internal/simcache"
)

// TestSpecRoundTripKey pins the corpus ↔ cache-key contract: a failure spec
// persisted by the triage pipeline, saved to disk, and reloaded rebuilds a
// replay configuration that hashes to the same simcache key as the
// originating campaign cell. A service can therefore answer "has this
// corpus entry's cell been simulated?" from the cache without re-deriving
// campaign state.
func TestSpecRoundTripKey(t *testing.T) {
	o := Options{Procs: 8, CacheBytes: 4096, Scale: ""}
	space := Space{
		Workloads: []string{"zipf"},
		Protocols: ProtocolsByName("W+DSI"),
		Templates: []Template{{Name: "storm", Faults: &faultinj.Config{
			Drop: 0.02, Dup: 0.02, Delay: 0.1, Jitter: 48,
			DropByKind: map[int]float64{2: 0.5, 4: 0.125},
			DropByLink: map[[2]int]float64{{1, 2}: 0.25, {0, 3}: 0.75},
			Rules:      []faultinj.Rule{{Kind: 1, Src: -1, Dst: -1, Nth: 2, Action: faultinj.Drop}},
		}}},
	}
	cell := space.Cell(42, 0)
	fc := faultsFor(cell)
	scale, err := scaleOf(o.Scale)
	if err != nil {
		t.Fatal(err)
	}
	orig := simcache.RequestOf(cell.Workload, scale.String(), cell.Protocol.Name,
		machineConfig(cell, o, fc)).Key()

	spec := &Spec{
		Soak: 1, Workload: cell.Workload, Protocol: cell.Protocol.Name,
		Template: cell.Template.Name, Seed: cell.Seed,
		Procs: o.Procs, CacheBytes: o.CacheBytes, Scale: o.Scale,
		Faults: FaultSpecOf(fc),
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := SaveSpec(spec, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the machine config exactly as Spec.Replay does.
	pr, err := proto.LabelOf(loaded.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	rfc, err := loaded.Faults.Config()
	if err != nil {
		t.Fatal(err)
	}
	rscale, err := scaleOf(loaded.Scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Config{
		Processors:  loaded.Procs,
		CacheBytes:  loaded.CacheBytes,
		CacheAssoc:  4,
		Consistency: pr.Consistency,
		Policy:      pr.Policy,
		Seed:        loaded.Seed | 1,
		Faults:      rfc,
	}
	got := simcache.RequestOf(loaded.Workload, rscale.String(), loaded.Protocol, cfg).Key()
	if got != orig {
		t.Fatalf("replayed spec key %v != originating cell key %v", got, orig)
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
