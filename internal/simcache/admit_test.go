package simcache

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dsisim/internal/machine"
	"dsisim/internal/proto"
	"dsisim/internal/rng"
	"dsisim/internal/stats"
)

// zipfStream returns n requests over items ranks whose counts follow zipf
// (s = 1) popularity, rounded down with the remainder going one each to the
// top ranks, in an order drawn from seed. Rank k is item k-1.
func zipfStream(items, n int, seed uint64) []int {
	var h float64
	for k := 1; k <= items; k++ {
		h += 1 / float64(k)
	}
	stream := make([]int, 0, n)
	for i := 0; i < items; i++ {
		for c := int(float64(n) / (float64(i+1) * h)); c > 0; c-- {
			stream = append(stream, i)
		}
	}
	for i := 0; len(stream) < n; i++ {
		stream = append(stream, i)
	}
	r := rng.New(seed)
	for i := len(stream) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		stream[i], stream[j] = stream[j], stream[i]
	}
	return stream
}

// catalogue returns cells synthetic 8-processor Results and their keys. The
// Results are all of one size and each costs 1,000–20,000 events to
// recompute.
func catalogue(cells int, seed uint64) ([]Key, []machine.Result) {
	r := rng.New(seed)
	keys := make([]Key, cells)
	results := make([]machine.Result, cells)
	for i := range results {
		keys[i] = Request{Workload: "zipf", Scale: "test", Protocol: "V", Processors: 8, Seed: uint64(i)}.Key()
		results[i] = machine.Result{
			Program: "zipf",
			PerProc: make([]stats.Breakdown, 8),
			Cache:   make([]proto.CacheStats, 8),
			Dir:     make([]proto.DirStats, 8),
			Kernel:  stats.Kernel{Events: 1000 + uint64(r.Intn(19001))},
		}
	}
	return keys, results
}

// replay requests stream through c and returns the events its computes
// cost.
func replay(c *Cache, stream []int, keys []Key, results []machine.Result) uint64 {
	var computed uint64
	for _, i := range stream {
		c.Do(keys[i], func() machine.Result {
			computed += results[i].Kernel.Events
			return results[i]
		})
	}
	return computed
}

// TestAdmissionCutsRecompute replays a popular-cached-shaped stream: 4,096
// zipf requests over 216 cells under a budget that holds 54 results. A
// pure LRU store recomputes 14,118,970 events of it; admitting by request
// count × cost per byte must save at least a fifth of that, and the same
// stream must give the same counts every time.
func TestAdmissionCutsRecompute(t *testing.T) {
	const (
		cells, requests = 216, 4096
		lruComputed     = 14_118_970 // measured under LRU alone, same stream
	)
	keys, results := catalogue(cells, 1)
	stream := zipfStream(cells, requests, 1)
	budget := 54 * resultSize(&results[0])

	c := New(budget)
	computed := replay(c, stream, keys, results)
	s := c.Stats()
	t.Logf("computed %d events (LRU alone: %d, %.3f); %+v", computed, lruComputed, float64(computed)/lruComputed, s)
	if computed > lruComputed*8/10 {
		t.Errorf("computed %d events, want at most 80%% of LRU's %d", computed, lruComputed)
	}
	if s.Refused == 0 || s.Bytes > budget {
		t.Errorf("stats %+v: want refusals, and at most %d bytes stored", s, budget)
	}

	again := New(budget)
	if replay(again, stream, keys, results) != computed || again.Stats() != s {
		t.Errorf("a second replay gave %+v, want %+v", again.Stats(), s)
	}

	all := New(0)
	replay(all, stream, keys, results)
	if s := all.Stats(); s.Refused != 0 || s.Hits != requests-cells || s.Evictions != 0 {
		t.Errorf("unbounded cache: %+v, want no refusals or evictions and %d hits", s, requests-cells)
	}
}

// TestAdmissionWeighsCost fills a cache of two results, then offers it
// results requested as often as its LRU tail: an expensive one displaces
// the tail, a cheap one is refused.
func TestAdmissionWeighsCost(t *testing.T) {
	costing := func(events uint64) func() machine.Result {
		return func() machine.Result {
			r := fakeResult("r", 8)
			r.Kernel.Events = events
			return r
		}
	}
	one := costing(0)()
	c := New(2 * resultSize(&one))
	// Keys 1 and 2 fill the cache, 3 overflows it once (ties admit) and
	// displaces 1; 2 and 3 are then requested once each.
	for _, k := range []uint64{1, 2, 3, 2, 3} {
		c.Do(Key{Hi: k}, costing(1000))
	}
	c.Do(Key{Hi: 4}, costing(100_000))
	c.Do(Key{Hi: 5}, costing(10))
	if s := c.Stats(); s.Refused != 1 || s.Evictions != 2 {
		t.Fatalf("stats %+v: want key 4 stored over key 2, key 5 refused", s)
	}
	for _, k := range []uint64{3, 4} {
		if _, hit := c.Do(Key{Hi: k}, costing(1000)); !hit {
			t.Errorf("key %d missed", k)
		}
	}
}

// TestCacheSingleflightRefusedResult asks a full cache for one cheap cold
// key from many goroutines at once. The admission rule refuses the result,
// and every waiter takes the refused result instead of computing it again.
func TestCacheSingleflightRefusedResult(t *testing.T) {
	hot := fakeResult("hot", 8)
	hot.Kernel.Events = 10_000
	cold := fakeResult("cold", 8)
	cold.Kernel.Events = 1
	c := New(2 * resultSize(&hot))
	// Fill the cache, overflow it once so it keeps request counts, and ask
	// for what it holds so the LRU tail has been requested.
	for _, k := range []uint64{1, 2, 3, 2, 3} {
		c.Do(Key{Hi: k}, func() machine.Result { return hot })
	}
	base := c.Stats()

	const callers = 8
	key := Key{Hi: 99}
	var computes atomic.Int64
	release := make(chan struct{})
	results := make([]machine.Result, callers)
	hits := make([]bool, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	go func() {
		defer wg.Done()
		results[0], hits[0] = c.Do(key, func() machine.Result {
			<-release
			computes.Add(1)
			return cold
		})
	}()
	for c.Stats().Misses == base.Misses {
		runtime.Gosched()
	}
	for i := 1; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], hits[i] = c.Do(key, func() machine.Result {
				computes.Add(1)
				return cold
			})
		}(i)
	}
	for c.Stats().Waits-base.Waits < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i := range results {
		if !reflect.DeepEqual(results[i], cold) || hits[i] != (i > 0) {
			t.Errorf("caller %d: hit %v, result %q; want the refused result, a hit for every waiter", i, hits[i], results[i].Program)
		}
	}
	s := c.Stats()
	if s.Refused-base.Refused != 1 || s.Waits-base.Waits != callers-1 || s.Entries != 2 {
		t.Errorf("stats %+v after %+v: want 1 refusal, %d waits and the 2 hot entries kept", s, base, callers-1)
	}
}

// TestSketchCountsSaturateAndHalve pins the sketch's shape: rows of the
// smallest power of two at least 8× the resident results, counts that stop
// at 15, and every count halved after 10× width requests.
func TestSketchCountsSaturateAndHalve(t *testing.T) {
	s := newSketch(54)
	if w := len(s.rows[0]); w != 512 {
		t.Fatalf("width %d for 54 results, want 512", w)
	}
	hot := Key{Hi: 1, Lo: 2}
	for range 20 {
		s.add(hot)
	}
	if n := s.count(hot); n != 15 {
		t.Fatalf("count %d after 20 requests, want 15", n)
	}
	if n := s.count(Key{Hi: 3}); n != 0 {
		t.Fatalf("count %d for a key never requested", n)
	}
	for i := 20; i < 10*512-1; i++ {
		s.add(Key{Lo: uint64(i)})
	}
	if n := s.count(hot); n != 15 {
		t.Fatalf("count %d one request before the halving, want 15", n)
	}
	s.add(Key{Lo: 1 << 40})
	if n := s.count(hot); n != 7 {
		t.Fatalf("count %d after the halving, want 7", n)
	}
}
