package simcache

import (
	"strconv"
	"sync"
	"unsafe"

	"dsisim/internal/machine"
	"dsisim/internal/stats"
	"dsisim/internal/workload"
)

// Cache is a bounded, concurrency-safe result store. Do either returns a
// cached Result for a key or computes it exactly once, even when many
// goroutines ask for the same key at the same moment (singleflight): the
// first caller computes while the rest wait on the entry and then read the
// stored value, or the refused one it hands over.
//
// A nil *Cache is valid and disabled: Do simply runs the compute function.
// That lets call sites thread an optional cache without nil checks.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	m      map[Key]*entry
	// LRU list: head is most recently used, tail the eviction candidate.
	head, tail *entry
	// freq counts recent requests per key. It is nil until a result first
	// overflows the budget, so a cache that never fills keeps no sketch.
	freq *sketch

	hits, misses, evictions, waits, refused int64
}

// entry is one cached (or in-flight) result. done is open while the first
// caller computes; waiters block on it, then take res if refused is set and
// re-check the map otherwise.
type entry struct {
	key        Key
	res        machine.Result
	size       int64
	done       chan struct{}
	refused    bool
	prev, next *entry
}

// New returns a cache of results under a byte budget: it stores results
// until they fill budgetBytes, then admits a result that would overflow it
// only if the result's recent request count times its recompute cost per
// byte is at least the least-recently-used result's, evicting from the LRU
// end to make room (see the package doc). A budget <= 0 means unbounded:
// every result is stored.
func New(budgetBytes int64) *Cache {
	return &Cache{budget: budgetBytes, m: make(map[Key]*entry)}
}

// Do returns the Result for key, computing it with compute on a miss. The
// second return reports whether the result came from the cache, or from
// another caller's compute this call waited on. Results for failed runs
// (Result.Failed()) are returned but never stored, so re-running a failing
// cell always re-executes it — triage and flake classification see real
// runs. A result the admission rule refuses is returned, to this caller and
// to every waiter, but not stored.
func (c *Cache) Do(key Key, compute func() machine.Result) (machine.Result, bool) {
	var res machine.Result
	hit := c.do(key, compute, &res)
	return res, hit
}

// do is Do with the Result written to *res. Run passes its own result, so a
// hit copies the Result out of the cache once instead of once per return.
func (c *Cache) do(key Key, compute func() machine.Result, res *machine.Result) bool {
	if c == nil {
		*res = compute()
		return false
	}
	c.mu.Lock()
	if c.freq != nil {
		c.freq.add(key)
	}
	for {
		if e, ok := c.m[key]; ok {
			if e.done == nil {
				c.hits++
				c.touch(e)
				*res = e.res
				c.mu.Unlock()
				return true
			}
			// Another caller is computing this key right now: wait for it.
			// A refused result is handed over; a failed one left no entry,
			// so the loop recomputes it here.
			c.waits++
			done := e.done
			c.mu.Unlock()
			<-done
			c.mu.Lock()
			if e.refused {
				c.hits++
				*res = e.res
				c.mu.Unlock()
				return true
			}
			continue
		}
		e := &entry{key: key, done: make(chan struct{})}
		c.m[key] = e
		c.misses++
		c.mu.Unlock()

		*res = compute()
		size := resultSize(res)

		c.mu.Lock()
		switch {
		case res.Failed():
			delete(c.m, key)
		case c.admit(key, res.Kernel.Events, size):
			e.res = *res
			e.size = size
			c.bytes += size
			c.pushFront(e)
			c.evict()
		default:
			delete(c.m, key)
			c.refused++
			e.res = *res
			e.refused = true
		}
		done := e.done
		e.done = nil
		c.mu.Unlock()
		close(done)
		return false
	}
}

// Run simulates registry workload name at scale on a machine of shape cfg,
// through machine.Run, memoized under the cell's key (RequestOf). The
// workload is built only on a miss. One that cannot be built comes back as
// err with a zero Result; the failed Result the cache saw is never stored.
// A nil cache, or a cfg with a Sink attached, runs the cell without
// computing a key: event recording is an effect a cached Result cannot
// replay.
func (c *Cache) Run(name string, scale workload.Scale, cfg machine.Config) (res machine.Result, hit bool, err error) {
	compute := func() machine.Result {
		prog, perr := workload.New(name, scale)
		if perr != nil {
			err = perr
			return machine.Result{Errors: []string{perr.Error()}}
		}
		return machine.Run(cfg, prog)
	}
	if c == nil || cfg.Sink != nil {
		res = compute()
	} else {
		hit = c.do(RequestOf(name, scale.String(), cfg).Key(), compute, &res)
	}
	if err != nil {
		return machine.Result{}, false, err
	}
	return res, hit, nil
}

// touch moves e to the LRU head. Caller holds mu.
func (c *Cache) touch(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// pushFront links e at the LRU head. Caller holds mu.
func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the LRU list. Caller holds mu.
func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// admit reports whether a computed result costing events to recompute and
// size bytes to hold may be stored. One that fits under the budget is, and
// so is one the cache has nothing to evict for. One that would overflow
// the budget is stored only if its recent request count times events per
// byte is at least the LRU tail's; ties admit, so equal counts and costs
// keep LRU's order. The first overflow allocates the request-count sketch,
// sized for the results then resident. Caller holds mu.
func (c *Cache) admit(key Key, events uint64, size int64) bool {
	if c.budget <= 0 || c.bytes+size <= c.budget || c.tail == nil {
		return true
	}
	if c.freq == nil {
		n := 0
		for e := c.head; e != nil; e = e.next {
			n++
		}
		c.freq = newSketch(n)
	}
	t := c.tail
	return worth(c.freq.count(key), events, size) >= worth(c.freq.count(t.key), t.res.Kernel.Events, t.size)
}

// worth is a result's recompute cost per byte held, weighted by its recent
// request count.
func worth(count uint8, events uint64, size int64) float64 {
	return float64(count) * float64(events) / float64(size)
}

// evict drops LRU-tail entries until the byte budget holds, always keeping
// at least one entry so a single oversized result still caches. Caller
// holds mu.
func (c *Cache) evict() {
	if c.budget <= 0 {
		return
	}
	for c.bytes > c.budget && len(c.m) > 1 && c.tail != nil {
		e := c.tail
		c.unlink(e)
		delete(c.m, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// Stats is a point-in-time snapshot of cache behaviour.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Waits counts singleflight suspensions: calls that found the key
	// in-flight and blocked instead of recomputing.
	Waits int64
	// Refused counts computed results the admission rule did not store.
	Refused int64
	Bytes   int64
	Entries int64
}

// Stats snapshots the counters. Safe on a nil cache (all zero).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Waits: c.waits, Refused: c.refused, Bytes: c.bytes, Entries: int64(len(c.m)),
	}
}

// Counters renders the snapshot for the stats/obs counter surface.
func (s Stats) Counters() []stats.Counter {
	return []stats.Counter{
		{Name: "simcache.hits", Value: s.Hits},
		{Name: "simcache.misses", Value: s.Misses},
		{Name: "simcache.evictions", Value: s.Evictions},
		{Name: "simcache.waits", Value: s.Waits},
		{Name: "simcache.refused", Value: s.Refused},
		{Name: "simcache.bytes", Value: s.Bytes},
		{Name: "simcache.entries", Value: s.Entries},
	}
}

// Table renders the snapshot as the repo's standard results table — the
// campaign-summary surface cmd/dsibench prints next to the experiment
// artifacts.
func (s Stats) Table() stats.Table {
	t := stats.Table{Title: "Result cache", Header: []string{"counter", "value"}}
	for _, c := range s.Counters() {
		t.AddRow(c.Name, strconv.FormatInt(c.Value, 10))
	}
	return t
}

// resultSize estimates the retained footprint of a Result: the struct
// itself plus the backing arrays of its slices and strings. Good to within
// allocator rounding — the budget is a pressure valve, not an accounting
// ledger.
func resultSize(r *machine.Result) int64 {
	size := int64(unsafe.Sizeof(*r))
	size += int64(len(r.Program))
	if n := len(r.PerProc); n > 0 {
		size += int64(n) * int64(unsafe.Sizeof(r.PerProc[0]))
	}
	if n := len(r.Cache); n > 0 {
		size += int64(n) * int64(unsafe.Sizeof(r.Cache[0]))
	}
	if n := len(r.Dir); n > 0 {
		size += int64(n) * int64(unsafe.Sizeof(r.Dir[0]))
	}
	for _, e := range r.Errors {
		size += int64(unsafe.Sizeof(e)) + int64(len(e))
	}
	return size
}
