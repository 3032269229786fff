package experiments

import (
	"reflect"
	"testing"

	"dsisim/internal/faultinj"
	"dsisim/internal/simcache"
	"dsisim/internal/workload"
)

// TestCacheEquivalence is the cache-correctness gate CI runs under -race:
// the same fault-injected matrix twice against one shared cache. The second
// pass must be served entirely from memory, and every cached cell must be
// deeply equal to its computed original — bit-identical results are the
// whole premise of content-addressed memoization over a deterministic
// simulator.
func TestCacheEquivalence(t *testing.T) {
	cache := simcache.New(64 << 20)
	o := Options{
		Processors: 8,
		Scale:      workload.ScaleTest,
		Faults:     &faultinj.Config{Drop: 0.02, Dup: 0.01, Delay: 0.05},
		Cache:      cache,
	}
	wls := []string{"em3d", "zipf"}
	labels := []Label{V, WDSI}

	first, err := RunMatrix(wls, labels, o)
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.Stats()
	if want := int64(len(wls) * len(labels)); cold.Misses != want || cold.Hits != 0 {
		t.Fatalf("cold pass: %d misses / %d hits, want %d / 0", cold.Misses, cold.Hits, want)
	}

	second, err := RunMatrix(wls, labels, o)
	if err != nil {
		t.Fatal(err)
	}
	warm := cache.Stats()
	if got := warm.Hits - cold.Hits; got != cold.Misses {
		t.Fatalf("warm pass hit %d of %d cells", got, cold.Misses)
	}
	if warm.Misses != cold.Misses {
		t.Fatalf("warm pass recomputed: misses %d -> %d", cold.Misses, warm.Misses)
	}

	for _, w := range wls {
		for _, l := range labels {
			a, b := first.Get(w, l), second.Get(w, l)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%s: cached result differs from computed", w, l)
			}
		}
	}
}

// A cell that differs in any grid parameter must recompute, not hit.
func TestCacheKeySeparatesOptions(t *testing.T) {
	cache := simcache.New(64 << 20)
	base := Options{Processors: 8, Scale: workload.ScaleTest, Cache: cache}
	if _, err := RunOne("zipf", V, base); err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]Options{
		"latency": {Processors: 8, Scale: workload.ScaleTest, Latency: 200, Cache: cache},
		"class":   {Processors: 8, Scale: workload.ScaleTest, Class: LargeCache, Cache: cache},
		"procs":   {Processors: 4, Scale: workload.ScaleTest, Cache: cache},
	} {
		before := cache.Stats().Misses
		if _, err := RunOne("zipf", V, o); err != nil {
			t.Fatal(err)
		}
		if cache.Stats().Misses != before+1 {
			t.Fatalf("%s: option change did not miss the cache", name)
		}
	}
	// Ablation policies are cached like labels: a 64-entry FIFO is V-FIFO's
	// cell, and another capacity is a cell of its own.
	if _, err := RunOne("zipf", VFIFO, base); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		capacity int
		hit      bool
	}{{64, true}, {8, false}, {8, true}} {
		before := cache.Stats()
		if _, err := RunFIFO("zipf", c.capacity, base); err != nil {
			t.Fatal(err)
		}
		if hit := cache.Stats().Hits == before.Hits+1; hit != c.hit {
			t.Fatalf("RunFIFO(%d): hit=%v, want %v", c.capacity, hit, c.hit)
		}
	}
}
