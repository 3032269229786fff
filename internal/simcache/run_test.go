package simcache

import (
	"reflect"
	"testing"

	"dsisim/internal/machine"
	"dsisim/internal/workload"
)

// runCell runs em3d at test scale on 8 processors through c.
func runCell(t *testing.T, c *Cache) (machine.Result, bool) {
	t.Helper()
	res, hit, err := c.Run("em3d", workload.ScaleTest, "SC", machine.Config{Processors: 8})
	if err != nil || res.Failed() {
		t.Fatalf("em3d: err %v, errors %q", err, res.Errors)
	}
	return res, hit
}

// A nil cache runs the cell and reports no hit, every time.
func TestRunNilCache(t *testing.T) {
	var c *Cache
	for i := 0; i < 2; i++ {
		res, hit := runCell(t, c)
		if hit || res.Kernel.Events == 0 {
			t.Fatalf("run %d: hit=%v events=%d, want a fresh run", i, hit, res.Kernel.Events)
		}
	}
}

// A repeated request is a hit, identical to the computed result, which is
// itself what an uncached run returns.
func TestRunRepeatIsHit(t *testing.T) {
	uncached, _ := runCell(t, nil)
	c := New(0)
	first, hit := runCell(t, c)
	if hit {
		t.Fatal("first request was a hit")
	}
	second, hit := runCell(t, c)
	if !hit {
		t.Fatal("repeated request missed")
	}
	if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(first, uncached) {
		t.Fatalf("results differ: computed %d cycles, hit %d, uncached %d",
			first.TotalTime, second.TotalTime, uncached.TotalTime)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", s)
	}
}

// A workload that cannot be built returns its error and a zero Result,
// stores nothing, and misses again when repeated.
func TestRunUnknownWorkload(t *testing.T) {
	c := New(0)
	for i := 0; i < 2; i++ {
		res, hit, err := c.Run("no-such-workload", workload.ScaleTest, "SC", machine.Config{Processors: 8})
		if err == nil || hit || !reflect.DeepEqual(res, machine.Result{}) {
			t.Fatalf("run %d: err %v, hit %v, result %+v; want an error, a miss and a zero Result", i, err, hit, res)
		}
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 0 {
		t.Fatalf("stats = %+v, want 2 misses and nothing stored", s)
	}
}
