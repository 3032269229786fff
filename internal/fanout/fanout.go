// Package fanout runs a driver's independent items — experiment grid cells,
// soak campaign cells — across worker goroutines. Items are whole,
// single-threaded simulations of milliseconds to seconds each, so one shared
// counter balances them: a worker that finishes an item claims the lowest
// index nobody has claimed yet, and a slow item holds back only its own
// worker.
//
// Each worker owns one machine.Pool for the length of a Run, so pooled
// machines are recycled without contention and no pool is used by two items
// at once. Items finish in no particular order: callers key results by item
// index. This package is driver-side orchestration and deliberately not in
// determinism.DefaultSimPackages; each item's simulation stays
// bit-deterministic.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dsisim/internal/machine"
)

// Run calls fn once for every item in [0, n) and returns when all calls
// have returned. Calls run concurrently on workers goroutines (workers <= 0
// means GOMAXPROCS; never more than n), serially within one worker, and each
// receives its worker's pool.
func Run(n, workers int, fn func(pool *machine.Pool, item int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pool machine.Pool
			for {
				item := int(next.Add(1) - 1)
				if item >= n {
					return
				}
				fn(&pool, item)
			}
		}()
	}
	wg.Wait()
}
