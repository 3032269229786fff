package main

import (
	"bytes"
	"math"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dsisim/internal/machine"
	"dsisim/internal/proto"
	"dsisim/internal/simcache"
	"dsisim/internal/stats"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{40, 7500}, {99, 7500}, {100, 9000}, {200, 9500}, {1000, 9900}, {4096, 9900}, {10000, 9990},
	} {
		got, err := tailPercentile(tc.n)
		if err != nil || got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d", tc.n, got, err, tc.want)
		}
	}
	if p, err := tailPercentile(39); err == nil {
		t.Errorf("tailPercentile(39) = %d, want an error: p75 would have 9 samples beyond it", p)
	}

	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so tail must sort
		}
		return s
	}
	v, beyond, err := tail(samples(40), 7500)
	if err != nil || math.Abs(v-30.5) > 0.05 || beyond != 10 {
		t.Errorf("tail(40 samples, p75) = %v, %d, %v; want about 30.5, 10, nil", v, beyond, err)
	}
	if m := median(samples(40)); v <= m {
		t.Errorf("tail %v is not above the median %v", v, m)
	}
	if v, _, err := tail(samples(39), 7500); err == nil {
		t.Errorf("tail(39 samples, p75) = %v, want an error", v)
	}
	if v, _, err := tail(samples(1000), 9990); err == nil {
		t.Errorf("tail(1000 samples, p99.9) = %v, want an error", v)
	}
	if _, _, err := tail(nil, 7500); err == nil {
		t.Errorf("tail of no samples: want an error")
	}
}

func TestQuantile(t *testing.T) {
	for _, tc := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3}, {2, 1, 0.5, 0.25}, {20.5, 20.5, 0.5, 0.5}, {6000.5, 6000.5, 0.5, 0.5},
	} {
		if got := regIncBeta(tc.a, tc.b, tc.x); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("regIncBeta(%v, %v, %v) = %v, want %v", tc.a, tc.b, tc.x, got, tc.want)
		}
	}
	// The estimate of 1..n is symmetric about (n+1)/2, and a constant
	// sample reads the constant.
	odd := []float64{5, 1, 4, 2, 3}
	if m := median(odd); math.Abs(m-3) > 1e-9 {
		t.Errorf("median(1..5) = %v, want 3", m)
	}
	if m := median([]float64{7, 7, 7, 7}); math.Abs(m-7) > 1e-9 {
		t.Errorf("median of constants = %v, want 7", m)
	}
	big := make([]float64, 12000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if m := median(big); math.Abs(m-6000.5) > 1e-6 {
		t.Errorf("median(1..12000) = %v, want 6000.5", m)
	}
	if median(nil) != 0 {
		t.Error("median of nothing is not 0")
	}
}

func TestGridOrderIsSeeded(t *testing.T) {
	a, b, c := gridCells(1), gridCells(1), gridCells(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same order")
	}
	distinct := map[gridCell]bool{}
	for _, cell := range a {
		distinct[cell] = true
	}
	if len(a) != 40 || len(distinct) != 40 {
		t.Fatalf("%d cells, %d distinct; want each of the 40 once", len(a), len(distinct))
	}
}

func TestCatalogueIsSeeded(t *testing.T) {
	a, b, c := catalogue(1), catalogue(1), catalogue(2)
	if len(a) != 216 {
		t.Fatalf("catalogue has %d cells, want 216", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two catalogues")
	}
	seeds := map[uint64]bool{}
	for i := range a {
		if a[i].Seed == c[i].Seed {
			t.Fatalf("cell %d has seed %#x under both run seeds", i, a[i].Seed)
		}
		seeds[a[i].Seed] = true
	}
	if len(seeds) != len(a) {
		t.Fatalf("%d distinct cell seeds among %d cells", len(seeds), len(a))
	}
}

func TestZipfStream(t *testing.T) {
	a, b, c := zipfStream(216, streamLen, 7), zipfStream(216, streamLen, 7), zipfStream(216, streamLen, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
	counts := make([]int, 216)
	for _, i := range a {
		counts[i]++
	}
	// Different seeds reorder the same zipf multiset.
	counts8 := make([]int, 216)
	for _, i := range c {
		counts8[i]++
	}
	if len(a) != streamLen || !reflect.DeepEqual(counts, counts8) {
		t.Fatalf("stream length %d or counts differ between seeds", len(a))
	}
	for k := 1; k < 216; k++ {
		if counts[k] > counts[k-1] || counts[k] == 0 {
			t.Fatalf("rank %d has %d requests after rank %d's %d", k+1, counts[k], k, counts[k-1])
		}
	}
	if counts[0] < 2*counts[1]-2 || counts[0] > 2*counts[1]+2 {
		t.Errorf("rank 1 has %d requests, rank 2 %d: want about twice as many", counts[0], counts[1])
	}
}

// hitCount replays a stream through a result cache of the given budget,
// with Results shaped like the 8-processor ones popular-cached stores.
func hitCount(stream []int, budget int64) int64 {
	c := simcache.New(budget)
	for _, i := range stream {
		c.Do(simcache.Key{Lo: uint64(i)}, func() machine.Result {
			return machine.Result{
				Program: "em3d",
				PerProc: make([]stats.Breakdown, 8),
				Cache:   make([]proto.CacheStats, 8),
				Dir:     make([]proto.DirStats, 8),
			}
		})
	}
	return c.Stats().Hits
}

func TestFixedSeedAndBudgetGiveFixedHits(t *testing.T) {
	stream := zipfStream(216, streamLen, 3)
	h1, h2 := hitCount(stream, cacheBudget), hitCount(zipfStream(216, streamLen, 3), cacheBudget)
	if h1 != h2 {
		t.Fatalf("hit counts %d and %d for one seed and budget", h1, h2)
	}
	if ratio := float64(h1) / streamLen; ratio < 0.4 || ratio > 0.9 {
		t.Errorf("hit ratio %.3f: the budget no longer holds about a quarter of the catalogue", ratio)
	}
	if all := hitCount(stream, 0); all != streamLen-216 {
		t.Errorf("unbounded cache: %d hits, want %d", all, streamLen-216)
	}
}

func TestFoldCannedStacks(t *testing.T) {
	const (
		handle   = "dsisim/internal/proto.(*CacheCtrl).Handle"
		procRead = "dsisim/internal/cpu.(*Proc).Read"
		kernel   = "dsisim/internal/workload.(*EM3D).Kernel"
		start    = "dsisim/internal/cpu.(*Proc).Start.func1"
	)
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{handle, "dsisim/internal/netsim.(*Network).deliver"}, "proto"},
		{[]string{"runtime.mallocgc", "runtime.newobject", handle}, "proto"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", handle}, layerRuntime},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", procRead, kernel, start, "runtime.goexit"}, layerHandoff},
		{[]string{procRead, kernel, start}, "cpu"},
		{[]string{"dsisim/internal/rng.(*RNG).Uint64", procRead}, "cpu"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, layerHandoff},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerRuntime},
		{[]string{"runtime._System"}, layerRuntime},
		{[]string{"main.(*hookedProgram).Kernel.func1", procRead}, layerBench},
		{[]string{"syscall.Syscall", "os.(*File).Sync", "dsisim/internal/soak.(*Journal).Append"}, "soak"},
		{[]string{"dsisim/internal/event.(*Queue).Pop", "dsisim.RunProgram"}, "event"},
		{[]string{"dsisim.RunProgram"}, "machine"},
		{[]string{"os/signal.loop"}, ""},
	} {
		if got := classify(tc.frames); got != tc.want {
			t.Errorf("classify(%q) = %q, want %q", tc.frames, got, tc.want)
		}
	}

	byLayer, total, gcNs := fold([]stack{
		{[]string{handle}, 30},
		{[]string{"runtime.chanrecv", procRead}, 50},
		{[]string{"runtime.gcBgMarkWorker"}, 15},
		{[]string{"runtime._System"}, 4},
		{[]string{"os/signal.loop"}, 1},
	})
	want := map[string]int64{"proto": 30, layerHandoff: 50, layerRuntime: 19, "": 1}
	if total != 100 || gcNs != 15 || !reflect.DeepEqual(byLayer, want) {
		t.Fatalf("fold = %v, total %d, gc %d; want %v, 100, 15", byLayer, total, gcNs, want)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dsisim/internal/proto.(*CacheCtrl).Handle": "dsisim/internal/proto",
		"dsisim.Run":                     "dsisim",
		"dsisim/internal/soak.Run.func1": "dsisim/internal/soak",
		"runtime.mcall":                  "runtime",
		"runtime/pprof.profileWriter":    "runtime/pprof",
		"main.run":                       "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestReadProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range stacks {
		total += s.ns
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spinForProfile") {
				spin += s.ns
				break
			}
		}
	}
	if total == 0 || spin == 0 {
		t.Fatalf("%d stacks, %d ns, %d ns in spinForProfile: want samples of the spin", len(stacks), total, spin)
	}
	if _, err := readProfile([]byte("not a profile")); err == nil {
		t.Error("readProfile accepted garbage")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Request: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Request: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Request: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Request: 1, Name: "c", Start: 90, End: 120}, // ends after the parent
		{ID: 5, Parent: 3, Request: 1, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
}

func TestMachineSpans(t *testing.T) {
	tr := &tracer{}
	at := func(d time.Duration) time.Time { return tr.epoch.Add(d) }
	req := tr.add("request", 0, at(0), at(110))
	tr.add("workload.New", req, at(0), at(10))
	run := tr.add("dsisim.RunProgram", req, at(10), at(110))
	tr.add("workload.setup", run, at(20), at(30))
	tr.add("machine.simulate", run, at(35), at(100))
	acquire, simulate, finish := machineSpans(tr)
	// acquire: 10 before Setup and 5 between Setup and the first kernel.
	if !reflect.DeepEqual(acquire, []time.Duration{15}) || !reflect.DeepEqual(simulate, []time.Duration{65}) ||
		!reflect.DeepEqual(finish, []time.Duration{10}) {
		t.Fatalf("machineSpans = %v %v %v, want [15] [65] [10]", acquire, simulate, finish)
	}
}

// fakeLoop issues perPass instant requests a pass; drift changes the counts
// of every pass after the first.
type fakeLoop struct {
	perPass int
	drift   bool
	passes  int
}

func (f *fakeLoop) pass(ph *phase, _ *tracer) error {
	for i := 0; i < f.perPass; i++ {
		ph.request(time.Microsecond, "")
		ph.cur.events += 100
		if f.drift && f.passes > 0 {
			ph.cur.events++
		}
	}
	f.passes++
	return nil
}

func (f *fakeLoop) settle(*phase) {}

func TestMeasureWholePasses(t *testing.T) {
	ph, err := measure(&fakeLoop{perPass: 3}, 0, 10, 0, nil)
	if err != nil || ph.passes != 4 || ph.attempted != 12 || len(ph.problems) != 0 {
		t.Fatalf("measure = %d passes, %d requests, %v, %v; want 4 passes of 3 for 10 requests", ph.passes, ph.attempted, ph.problems, err)
	}
	if ph.sim.requests != 3 || ph.delivered != 1200 {
		t.Fatalf("pass counts %+v, delivered %d; want 3 requests a pass, 1200 events", ph.sim, ph.delivered)
	}
	ph, _ = measure(&fakeLoop{perPass: 3}, time.Hour, 1, 2, nil)
	if ph.passes != 2 {
		t.Fatalf("fixed passes: ran %d, want 2", ph.passes)
	}
	ph, _ = measure(&fakeLoop{perPass: 3, drift: true}, 0, 1, 2, nil)
	if len(ph.problems) == 0 {
		t.Fatal("a pass whose counts differ from the first was not reported")
	}
}

func TestSeenChecksRepeats(t *testing.T) {
	s := seen{}
	if p := s.check("em3d/V", sig{1, 2, 3}); p != "" {
		t.Fatalf("first output reported: %s", p)
	}
	if p := s.check("em3d/V", sig{1, 2, 3}); p != "" {
		t.Fatalf("identical repeat reported: %s", p)
	}
	if p := s.check("em3d/V", sig{1, 2, 4}); p == "" {
		t.Fatal("a repeat with different messages was not reported")
	}
}
