package simcache

import (
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"dsisim/internal/machine"
	"dsisim/internal/stats"
)

func fakeResult(tag string, procs int) machine.Result {
	return machine.Result{
		Program:   tag,
		ExecTime:  12345,
		Breakdown: stats.Breakdown{Cycles: [stats.NumCategories]int64{100, 50}},
		PerProc:   make([]stats.Breakdown, procs),
	}
}

func TestCacheHitReturnsIdenticalResult(t *testing.T) {
	c := New(1 << 20)
	key := Key{Hi: 1, Lo: 2}
	computes := 0
	compute := func() machine.Result {
		computes++
		return fakeResult("r1", 8)
	}
	first, cached := c.Do(key, compute)
	if cached {
		t.Fatal("first Do reported a cache hit")
	}
	second, cached := c.Do(key, compute)
	if !cached {
		t.Fatal("second Do missed")
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result differs from computed: %+v vs %+v", first, second)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

func TestCacheDistinctKeysDistinctResults(t *testing.T) {
	c := New(1 << 20)
	r1, _ := c.Do(Key{Hi: 1}, func() machine.Result { return fakeResult("a", 2) })
	r2, _ := c.Do(Key{Hi: 2}, func() machine.Result { return fakeResult("b", 2) })
	g1, hit1 := c.Do(Key{Hi: 1}, func() machine.Result { t.Fatal("recompute"); return machine.Result{} })
	g2, hit2 := c.Do(Key{Hi: 2}, func() machine.Result { t.Fatal("recompute"); return machine.Result{} })
	if !hit1 || !hit2 {
		t.Fatal("expected hits on both keys")
	}
	if g1.Program != r1.Program || g2.Program != r2.Program {
		t.Fatalf("results crossed keys: %q/%q vs %q/%q", g1.Program, g2.Program, r1.Program, r2.Program)
	}
}

func TestCacheNilDisabled(t *testing.T) {
	var c *Cache
	computes := 0
	for i := 0; i < 3; i++ {
		res, cached := c.Do(Key{Hi: 9}, func() machine.Result {
			computes++
			return fakeResult("x", 1)
		})
		if cached {
			t.Fatal("nil cache reported a hit")
		}
		if res.Program != "x" {
			t.Fatalf("nil cache mangled the result: %q", res.Program)
		}
	}
	if computes != 3 {
		t.Fatalf("nil cache memoized: %d computes, want 3", computes)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", s)
	}
}

func TestCacheFailedResultsNotStored(t *testing.T) {
	c := New(1 << 20)
	key := Key{Hi: 7}
	computes := 0
	bad := func() machine.Result {
		computes++
		r := fakeResult("bad", 1)
		r.Errors = []string{"deadlock: no runnable events"}
		return r
	}
	for i := 0; i < 2; i++ {
		res, cached := c.Do(key, bad)
		if cached || !res.Failed() {
			t.Fatalf("run %d: cached=%v failed=%v, want fresh failure", i, cached, res.Failed())
		}
	}
	if computes != 2 {
		t.Fatalf("failed result was memoized: %d computes, want 2", computes)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("failed result retained: %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	one := resultSize(&machine.Result{})
	// Budget for roughly three bare results.
	c := New(3*one + one/2)
	for i := uint64(0); i < 5; i++ {
		c.Do(Key{Hi: i}, func() machine.Result { return machine.Result{ExecTime: 1} })
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget after 5 inserts: %+v", c.budget, s)
	}
	if s.Bytes > c.budget {
		t.Fatalf("stored bytes %d exceed budget %d", s.Bytes, c.budget)
	}
	// The most recent key must have survived; the oldest must be gone.
	if _, hit := c.Do(Key{Hi: 4}, func() machine.Result { return machine.Result{} }); !hit {
		t.Fatal("most recently inserted key was evicted")
	}
	if _, hit := c.Do(Key{Hi: 0}, func() machine.Result { return machine.Result{} }); hit {
		t.Fatal("least recently used key survived eviction")
	}
}

func TestCacheLRUTouchOnHit(t *testing.T) {
	one := resultSize(&machine.Result{})
	c := New(2*one + one/2)
	c.Do(Key{Hi: 1}, func() machine.Result { return machine.Result{} })
	c.Do(Key{Hi: 2}, func() machine.Result { return machine.Result{} })
	// Touch key 1 so key 2 becomes the eviction candidate.
	if _, hit := c.Do(Key{Hi: 1}, func() machine.Result { return machine.Result{} }); !hit {
		t.Fatal("warm key missed")
	}
	c.Do(Key{Hi: 3}, func() machine.Result { return machine.Result{} })
	if _, hit := c.Do(Key{Hi: 1}, func() machine.Result { return machine.Result{} }); !hit {
		t.Fatal("recently touched key was evicted")
	}
}

func TestCacheOversizedResultStillCaches(t *testing.T) {
	c := New(1) // absurdly small budget
	key := Key{Hi: 11}
	c.Do(key, func() machine.Result { return fakeResult("big", 32) })
	if _, hit := c.Do(key, func() machine.Result { return machine.Result{} }); !hit {
		t.Fatal("single oversized result was not retained")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d, want 1", s.Entries)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := New(1 << 20)
	key := Key{Hi: 42}
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	const callers = 8
	results := make([]machine.Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	go func() {
		// First caller: blocks inside compute until released.
		defer wg.Done()
		results[0], _ = c.Do(key, func() machine.Result {
			close(started)
			<-release
			computes.Add(1)
			return fakeResult("sf", 4)
		})
	}()
	<-started
	for i := 1; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], _ = c.Do(key, func() machine.Result {
				computes.Add(1)
				return fakeResult("sf", 4)
			})
		}(i)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	if s := c.Stats(); s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
}

func TestCacheSingleflightFailedComputeRetries(t *testing.T) {
	c := New(1 << 20)
	key := Key{Hi: 43}
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	var waiterCached bool
	go func() {
		defer wg.Done()
		c.Do(key, func() machine.Result {
			close(started)
			<-release
			return machine.Result{Errors: []string{"boom"}}
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		// This caller blocks on the in-flight failure, then recomputes.
		_, waiterCached = c.Do(key, func() machine.Result {
			return fakeResult("ok", 1)
		})
	}()
	close(release)
	wg.Wait()
	if waiterCached {
		t.Fatal("waiter reported a hit off a failed compute")
	}
	if _, hit := c.Do(key, func() machine.Result { return machine.Result{} }); !hit {
		t.Fatal("waiter's successful recompute was not stored")
	}
}

func TestStatsCounters(t *testing.T) {
	s := Stats{Hits: 3, Misses: 2, Evictions: 1, Waits: 4, Refused: 5, Bytes: 500, Entries: 2}
	cs := s.Counters()
	want := map[string]int64{
		"simcache.hits": 3, "simcache.misses": 2, "simcache.evictions": 1,
		"simcache.waits": 4, "simcache.refused": 5, "simcache.bytes": 500, "simcache.entries": 2,
	}
	if len(cs) != len(want) {
		t.Fatalf("got %d counters, want %d", len(cs), len(want))
	}
	for _, ctr := range cs {
		if want[ctr.Name] != ctr.Value {
			t.Errorf("%s = %d, want %d", ctr.Name, ctr.Value, want[ctr.Name])
		}
	}
	tab := s.Table()
	if len(tab.Rows) != len(want) {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), len(want))
	}
	for _, row := range tab.Rows {
		if strconv.FormatInt(want[row[0]], 10) != row[1] {
			t.Errorf("table row %s = %s, want %d", row[0], row[1], want[row[0]])
		}
	}
}
