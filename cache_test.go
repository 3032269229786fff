package dsisim

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestCampaignCacheSpeedup pins the headline property of the result cache:
// on the zipf-popular campaign mix, serving repeated cells from memory is at
// least 5x faster end to end than simulating every request — and every
// memoized result is bit-identical to the computed one. The mix has ~15x
// more requests than distinct cells, so the bound holds with wide margin
// even on a loaded machine; a failure here means hits are doing real work.
// Each side is timed as the best of a few trials, each cached trial on a
// fresh cache and every phase after a forced GC, so one preemption or a GC
// cycle left over from the other phase cannot decide a ~5ms measurement.
func TestCampaignCacheSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	mix := campaignMix(6, 90)

	runMix := func(cache *ResultCache) (time.Duration, []Result) {
		runtime.GC()
		start := time.Now()
		results := make([]Result, len(mix))
		for i, cfg := range mix {
			cfg.Cache = cache
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = res
		}
		return time.Since(start), results
	}

	var uncachedTime, cachedTime time.Duration
	for trial := 0; trial < 3; trial++ {
		u, computed := runMix(nil)
		c, memoized := runMix(NewResultCache(256 << 20))
		for i := range mix {
			if !reflect.DeepEqual(computed[i], memoized[i]) {
				t.Fatalf("request %d (%s seed %d): memoized result differs from computed",
					i, mix[i].Workload, mix[i].Seed)
			}
		}
		if trial == 0 || u < uncachedTime {
			uncachedTime = u
		}
		if trial == 0 || c < cachedTime {
			cachedTime = c
		}
	}
	if cachedTime*5 > uncachedTime {
		t.Fatalf("cache speedup below 5x: uncached %v, cached %v (%.1fx)",
			uncachedTime, cachedTime, float64(uncachedTime)/float64(cachedTime))
	}
	t.Logf("campaign mix: %d requests, uncached %v, cached %v (%.1fx)",
		len(mix), uncachedTime, cachedTime, float64(uncachedTime)/float64(cachedTime))
}

// An unknown workload fails the same way with and without a result cache:
// a zero Result and the registry's error, and the cache stores nothing.
func TestUnknownWorkloadCachedOrNot(t *testing.T) {
	plain, plainErr := Run(testCfg("bogus", SC))
	cfg := testCfg("bogus", SC)
	cfg.Cache = NewResultCache(0)
	cached, cachedErr := Run(cfg)
	if plainErr == nil || cachedErr == nil || plainErr.Error() != cachedErr.Error() {
		t.Fatalf("errors differ: uncached %v, cached %v", plainErr, cachedErr)
	}
	if !reflect.DeepEqual(plain, Result{}) || !reflect.DeepEqual(cached, Result{}) {
		t.Fatalf("results are not zero: uncached errors %q, cached errors %q", plain.Errors, cached.Errors)
	}
	if s := cfg.Cache.Stats(); s.Entries != 0 {
		t.Fatalf("cache stored a failed run: %+v", s)
	}
}
