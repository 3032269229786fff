package dsisim

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5). Each BenchmarkFig*/BenchmarkTable* runs the full
// experiment grid at paper scale (32 simulated processors) and reports the
// headline series as custom metrics, so `go test -bench=.` reproduces the
// numbers EXPERIMENTS.md records. The kernel benchmarks (BenchmarkEventQueue,
// BenchmarkNetworkDelivery, BenchmarkRunOne, BenchmarkCacheLookupMicro,
// BenchmarkPaperCell, BenchmarkAudit) measure simulator throughput itself.
//
// One full iteration of a paper artifact simulates dozens of machine
// configurations; expect minutes, not microseconds.

import (
	"fmt"
	"testing"

	"dsisim/internal/cache"
	"dsisim/internal/check"
	"dsisim/internal/event"
	"dsisim/internal/experiments"
	"dsisim/internal/machine"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/proto"
	"dsisim/internal/workload"
)

// paperOpts is the evaluation configuration: the paper's 32 processors.
func paperOpts() experiments.Options { return experiments.Options{Processors: 32} }

// BenchmarkFig3 regenerates Figure 3 (DSI under sequential consistency,
// both cache classes, 100-cycle network). Metrics: execution time of W, S,
// and V normalized to SC on the large cache class.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small, large, err := experiments.Fig3Matrices(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		_ = small
		for _, w := range workload.PaperNames() {
			for _, l := range []experiments.Label{experiments.W, experiments.S, experiments.V} {
				b.ReportMetric(large.Normalized(w, l, experiments.SC), w+"-"+string(l))
			}
		}
	}
}

// BenchmarkFig4 regenerates Figure 4 (1000-cycle network). Metrics: V
// normalized to SC on both cache classes.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small, large, err := experiments.Fig4Matrices(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range workload.PaperNames() {
			b.ReportMetric(small.Normalized(w, experiments.V, experiments.SC), w+"-V-small")
			b.ReportMetric(large.Normalized(w, experiments.V, experiments.SC), w+"-V-large")
		}
	}
}

// BenchmarkFig5 regenerates Figure 5 (FIFO vs flush-at-sync). Metrics: the
// two mechanisms normalized to SC.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.Fig5Matrix(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range workload.PaperNames() {
			b.ReportMetric(m.Normalized(w, experiments.VFIFO, experiments.SC), w+"-fifo")
			b.ReportMetric(m.Normalized(w, experiments.V, experiments.SC), w+"-flush")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 / Figure 6 (weakly consistent DSI).
// Metrics: W+DSI normalized to W per configuration.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, err := experiments.Table2Matrices(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		for cell, m := range ms {
			for _, w := range workload.PaperNames() {
				name := fmt.Sprintf("%s-%v-%dcyc", w, cell.Class, cell.Latency)
				b.ReportMetric(m.Normalized(w, experiments.WDSI, experiments.W), name)
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (message reduction). Metrics:
// fractional reduction of total and invalidation messages, large cache.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small, large, err := experiments.Table3Matrices(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		_ = small
		for _, w := range workload.PaperNames() {
			total, inval := experiments.MessageReduction(large, w)
			b.ReportMetric(total, w+"-total")
			b.ReportMetric(inval, w+"-inval")
		}
	}
}

// --- ablation benchmarks -----------------------------------------------------

// BenchmarkAblationFIFOCapacity sweeps the FIFO size on sparse: the paper's
// Figure 5 pathology (early self-invalidation) grows as capacity shrinks.
// Metrics: execution time normalized to the flush-at-sync mechanism, and
// forced displacements.
func BenchmarkAblationFIFOCapacity(b *testing.B) {
	flush, err := experiments.RunOne("sparse", experiments.V,
		experiments.Options{Processors: 32, Class: experiments.LargeCache})
	if err != nil {
		b.Fatal(err)
	}
	for _, capacity := range []int{4, 16, 64, 256} {
		capacity := capacity
		b.Run(fmt.Sprintf("entries=%d", capacity), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFIFO("sparse", capacity,
					experiments.Options{Processors: 32, Class: experiments.LargeCache})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.ExecTime)/float64(flush.ExecTime), "vs-flush")
				b.ReportMetric(float64(res.FIFODisplacements), "displacements")
			}
		})
	}
}

// BenchmarkAblationIdentifiers compares the identification schemes — never
// (base), states, versions, and the mark-everything bound — on the
// migratory microbenchmark where exclusive-block marking matters most.
func BenchmarkAblationIdentifiers(b *testing.B) {
	for _, id := range []string{"never", "states", "versions", "always"} {
		id := id
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunIdentifier("migratory", id,
					experiments.Options{Processors: 32, Class: experiments.LargeCache})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.ExecTime), "simcycles")
				b.ReportMetric(float64(res.Messages.Invalidation()), "inval-msgs")
			}
		})
	}
}

// BenchmarkAblationUpgradeExemption measures the §4.1 special case: marking
// lone upgrades for self-invalidation degrades SC performance.
func BenchmarkAblationUpgradeExemption(b *testing.B) {
	for _, exempt := range []bool{true, false} {
		exempt := exempt
		b.Run(fmt.Sprintf("exemption=%v", exempt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunUpgradeExemption("tomcatv", exempt,
					experiments.Options{Processors: 32, Class: experiments.LargeCache})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.ExecTime), "simcycles")
			}
		})
	}
}

// BenchmarkAblationMigratory compares the migratory-sharing baseline and
// its composition with DSI against SC and V on the migratory pattern.
func BenchmarkAblationMigratory(b *testing.B) {
	configs := []struct {
		name string
		run  func() (Result, error)
	}{
		{"sc", func() (Result, error) {
			return experiments.RunIdentifier("migratory", "never", experiments.Options{Processors: 32, Class: experiments.LargeCache})
		}},
		{"dsi-v", func() (Result, error) {
			return experiments.RunIdentifier("migratory", "versions", experiments.Options{Processors: 32, Class: experiments.LargeCache})
		}},
		{"migratory", func() (Result, error) {
			return experiments.RunMigratory("migratory", false, experiments.Options{Processors: 32, Class: experiments.LargeCache})
		}},
		{"migratory+dsi", func() (Result, error) {
			return experiments.RunMigratory("migratory", true, experiments.Options{Processors: 32, Class: experiments.LargeCache})
		}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := cfg.run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.ExecTime), "simcycles")
				b.ReportMetric(float64(res.Messages.Total()), "messages")
			}
		})
	}
}

// BenchmarkAblationLimitedDirectory measures how DSI relieves pointer
// pressure in a limited-pointer directory: overflows per pointer budget,
// with and without self-invalidation, on the broadcast-heavy sparse.
func BenchmarkAblationLimitedDirectory(b *testing.B) {
	for _, pointers := range []int{2, 4, 8} {
		for _, dsi := range []bool{false, true} {
			pointers, dsi := pointers, dsi
			name := fmt.Sprintf("pointers=%d/dsi=%v", pointers, dsi)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := experiments.RunLimitedDir("sparse", pointers, dsi,
						experiments.Options{Processors: 32, Class: experiments.LargeCache})
					if err != nil {
						b.Fatal(err)
					}
					var overflows int64
					for _, ds := range res.Dir {
						overflows += ds.PointerOverflows
					}
					b.ReportMetric(float64(overflows), "overflows")
					b.ReportMetric(float64(res.ExecTime), "simcycles")
				}
			})
		}
	}
}

// --- simulator micro-benchmarks ----------------------------------------------

// The three benchstat-ready kernel benchmarks below (BenchmarkEventQueue,
// BenchmarkNetworkDelivery, BenchmarkRunOne) report allocations so that a
//
//	go test -run=NONE -bench='EventQueue$|NetworkDelivery$|RunOne$' -count=10
//
// pair of runs before and after a kernel change benchstats cleanly. README.md
// §Performance records the current numbers.

// BenchmarkEventQueue measures the typed scheduling path at a realistic
// queue depth: 64 events stay pending, each rearming itself through
// AfterCall when it runs. Rearm delays cycle through the mix measured on the
// paper grid (1, 3, 10, 103 and 111 cycles), and one rearm in 64 waits
// 1,312 cycles, the default retry timer at the paper's 100-cycle network,
// so the overflow tier runs too. One op is one event scheduled and run;
// steady state allocates nothing.
func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	var delays [64]event.Time
	mix := [...]event.Time{1, 3, 10, 103, 111}
	for i := range delays {
		delays[i] = mix[i%len(mix)]
	}
	delays[len(delays)-1] = 1312
	var q event.Queue
	scheduled := 0
	var rearm event.Action
	rearm = func(arg any) {
		if scheduled < b.N {
			q.AfterCall(delays[scheduled%len(delays)], rearm, arg)
			scheduled++
		}
	}
	for scheduled < min(len(delays), b.N) {
		q.AfterCall(delays[scheduled], rearm, nil)
		scheduled++
	}
	b.ResetTimer()
	q.Run()
}

// BenchmarkNetworkDelivery measures one message per iteration through the
// pooled delivery path: Send, deliver, recycle.
func BenchmarkNetworkDelivery(b *testing.B) {
	b.ReportAllocs()
	q := &event.Queue{}
	net := netsim.New(q, netsim.Config{Nodes: 4, Latency: 100})
	for i := 0; i < 4; i++ {
		net.SetHandler(i, func(*netsim.Message) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(&netsim.Message{Kind: netsim.GetS, Src: 0, Dst: 1, Addr: 32})
		q.Run()
	}
}

// BenchmarkRunOne measures one full test-scale simulation per iteration of
// em3d/V on 8 processors. Its allocs/op budget is gated by
// TestNilSinkAllocsUnchanged; compare ns/op only between runs on one host.
func BenchmarkRunOne(b *testing.B) {
	b.ReportAllocs()
	cfg := Config{Workload: "em3d", Scale: ScaleTest, Protocol: V, Processors: 8}
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Kernel.Events
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkCacheLookupMicro measures the cache array's hit path.
func BenchmarkCacheLookupMicro(b *testing.B) {
	c := cache.New(cache.Config{SizeBytes: 256 * 1024, Assoc: 4})
	for i := 0; i < 1024; i++ {
		c.Install(mem.Addr(i*mem.BlockSize), &cache.Fill{State: cache.Shared})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(mem.Addr((i % 1024) * mem.BlockSize))
	}
}

// BenchmarkPaperCell times one paper-scale cell, em3d under V on 32
// processors with the 512 KiB cache class, on a warm parked machine, and
// reports host time per simulated event. The other kernel benchmarks work
// within the host's L1 cache (CacheLookupMicro cycles through 1,024 blocks,
// DirHandle touches one entry); this one spans a paper-scale machine's
// tables and cache arrays, so it sees changes to the host memory each
// simulated access touches. Building the program is left out of the time.
func BenchmarkPaperCell(b *testing.B) {
	mc, err := Config{Protocol: V, Processors: 32, CacheBytes: 512 << 10}.machineConfig()
	if err != nil {
		b.Fatal(err)
	}
	run := func() machine.Result {
		b.StopTimer()
		prog, err := workload.New("em3d", workload.ScalePaper)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := machine.Run(mc, prog)
		if res.Failed() {
			b.Fatal(res.Errors[0])
		}
		return res
	}
	run() // park a warm machine
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for range b.N {
		events += run().Kernel.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkAudit times the end-of-run coherence audit (check.Audit) over a
// finished paper-scale cell under V (32 processors, 512 KiB caches): every
// home record checked against the caches, with the warm Scratch a pooled
// machine keeps. em3d is the cell BenchmarkPaperCell runs; tomcatv touches
// the most blocks of the paper workloads. Any finding fails the benchmark.
func BenchmarkAudit(b *testing.B) {
	for _, wl := range []string{"em3d", "tomcatv"} {
		// The cell runs on the sub-benchmark's first call; later calls,
		// with larger b.N, audit the same finished machine.
		var ccs []*proto.CacheCtrl
		var dcs []*proto.DirCtrl
		var s check.Scratch
		audit := func(b *testing.B) {
			// A finished run has nothing in flight.
			if errs := check.Audit(ccs, dcs, 0, &s); len(errs) != 0 {
				b.Fatal(errs[0])
			}
		}
		b.Run(wl, func(b *testing.B) {
			if ccs == nil {
				mc, err := Config{Protocol: V, Processors: 32, CacheBytes: 512 << 10}.machineConfig()
				if err != nil {
					b.Fatal(err)
				}
				prog, err := workload.New(wl, workload.ScalePaper)
				if err != nil {
					b.Fatal(err)
				}
				m := machine.New(mc)
				if res := m.Run(prog); res.Failed() {
					b.Fatal(res.Errors[0])
				}
				for n := range mc.Processors {
					ccs = append(ccs, m.CacheCtrl(n))
					dcs = append(dcs, m.DirCtrl(n))
				}
				audit(b) // warms s
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				audit(b)
			}
		})
	}
}

// campaignMix builds the zipf-popular request stream that
// BenchmarkCampaignThroughput and TestCampaignCacheSpeedup share: requests
// spread over distinct cells with harmonic (zipf, s=1) popularity — cell k
// is asked for 1/(k+1) as often as cell 0. That is the shape of a campaign
// revisiting its hot configurations: a few cells dominate the stream, the
// tail stays unique. Cells differ only by seed, so every request is a full
// simulation when uncached.
func campaignMix(cells, requests int) []Config {
	h := 0.0
	for k := 0; k < cells; k++ {
		h += 1 / float64(k+1)
	}
	var mix []Config
	for k := 0; k < cells; k++ {
		n := int(float64(requests) / (h * float64(k+1)))
		if n < 1 {
			n = 1
		}
		cfg := Config{Workload: "zipf", Protocol: V, Processors: 8, Scale: ScaleTest, Seed: uint64(k)<<1 | 1}
		for i := 0; i < n; i++ {
			mix = append(mix, cfg)
		}
	}
	return mix
}

// BenchmarkCampaignThroughput measures campaign request throughput over the
// zipf-popular mix, with and without the content-addressed result cache.
// The cached variant holds one cache across all iterations — repeated cells
// are free; the uncached variant simulates every request. The
// cached-bounded variant's budget holds a third of the mix's cells, so its
// cache fills, and evicts and refuses results, as a campaign larger than
// its budget does.
func BenchmarkCampaignThroughput(b *testing.B) {
	const cells = 6
	mix := campaignMix(cells, 90)
	one := NewResultCache(0)
	probe := mix[0]
	probe.Cache = one
	if _, err := Run(probe); err != nil {
		b.Fatal(err)
	}
	bounded := one.Stats().Bytes * cells / 3
	run := func(b *testing.B, cache *ResultCache) {
		for i := 0; i < b.N; i++ {
			for _, cfg := range mix {
				cfg.Cache = cache
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(mix)*b.N)/b.Elapsed().Seconds(), "requests/s")
	}
	b.Run("uncached", func(b *testing.B) { run(b, nil) })
	b.Run("cached", func(b *testing.B) { run(b, NewResultCache(256<<20)) })
	b.Run("cached-bounded", func(b *testing.B) { run(b, NewResultCache(bounded)) })
}
