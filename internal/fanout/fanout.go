// Package fanout runs a driver's independent items — experiment grid cells,
// soak campaign cells — across worker goroutines. Items are whole,
// single-threaded simulations of milliseconds to seconds each, so one shared
// counter balances them: a worker that finishes an item claims the lowest
// index nobody has claimed yet, and a slow item holds back only its own
// worker.
//
// Items take their machines from internal/machine's one idle list through
// machine.Run, so a worker holds no state between items. Items finish in no
// particular order: callers key results by item index. This package is
// driver-side orchestration and deliberately not in
// determinism.DefaultSimPackages; each item's simulation stays
// bit-deterministic.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls fn once for every item in [0, n) and returns when all calls
// have returned. Calls run concurrently on workers goroutines (workers <= 0
// means GOMAXPROCS; never more than n), serially within one worker.
func Run(n, workers int, fn func(item int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				item := int(next.Add(1) - 1)
				if item >= n {
					return
				}
				fn(item)
			}
		}()
	}
	wg.Wait()
}
