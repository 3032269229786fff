package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every item runs exactly once, for assorted item/worker shapes including
// no items, more workers than items and a single worker.
func TestRunCoversEveryItemOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {0, 0}, {1, 4}, {7, 1}, {7, 3}, {100, 4}, {1000, 8}, {5, 16}, {50, 0},
	} {
		counts := make([]int32, tc.n)
		Run(tc.n, tc.workers, func(item int) {
			atomic.AddInt32(&counts[item], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: item %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// One slow item holds back only its own worker: with 2 workers and an item
// that blocks until every other item has finished, the other worker runs
// the rest and Run returns. A static split of the items between workers
// fails this: the blocked worker's share would never run.
func TestStuckItemDoesNotHoldBackOthers(t *testing.T) {
	const n = 64
	var done atomic.Int32
	release := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		Run(n, 2, func(item int) {
			if item == 0 {
				select {
				case <-release:
				case <-time.After(10 * time.Second):
					t.Error("item 0 was never released: the other items did not run")
				}
				return
			}
			if done.Add(1) == n-1 {
				close(release)
			}
		})
	}()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return")
	}
	if got := done.Load(); got != n-1 {
		t.Fatalf("finished %d of %d unblocked items", got, n-1)
	}
}

// workers <= 0 means GOMAXPROCS workers, and an explicit count is used as
// given: the first `want` items each wait until `want` items are running at
// once, which only that many concurrent workers can satisfy, and no more
// than `want` ever run at once.
func TestWorkerClamping(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{
		{0, runtime.GOMAXPROCS(0)}, {-1, runtime.GOMAXPROCS(0)}, {3, 3}, {1, 1},
	} {
		var (
			mu                     sync.Mutex
			running, peak, arrived int
		)
		gate := make(chan struct{})
		Run(4*tc.want, tc.workers, func(item int) {
			mu.Lock()
			running++
			peak = max(peak, running)
			if arrived++; arrived == tc.want {
				close(gate)
			}
			mu.Unlock()
			defer func() {
				mu.Lock()
				running--
				mu.Unlock()
			}()
			select {
			case <-gate:
			case <-time.After(10 * time.Second):
				t.Errorf("workers=%d: fewer than %d items ever ran at once", tc.workers, tc.want)
			}
		})
		if peak > tc.want {
			t.Errorf("workers=%d: %d items ran at once, want at most %d", tc.workers, peak, tc.want)
		}
	}
}
