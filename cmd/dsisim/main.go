// Command dsisim runs one simulation and prints a detailed report: timing
// breakdown per the paper's Figure 3 categories, message counts by kind,
// and DSI activity.
//
// Usage:
//
//	dsisim -workload em3d -protocol V [-procs 32] [-cachebytes 262144] [-latency 100] [-test]
//	dsisim -replay spec.json
//
// -cache runs the cell twice through a content-addressed result cache
// (budget -cachemb): once computed, once memoized. The two results must be
// bit-identical — the command fails otherwise — and the cache counters are
// printed, making the flag a quick self-check of the memoization layer.
//
// -replay loads a persisted soak failure spec (`dsibench -soak` or `-fuzz`,
// internal/soak; the committed corpus lives in testdata/soak-corpus/) and
// re-runs it exactly as its campaign cell ran: same workload, protocol,
// fault plan, and seeds. The exit status is nonzero if the spec is invalid
// or the cell still fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"

	"dsisim"
	"dsisim/internal/netsim"
	"dsisim/internal/proto"
	"dsisim/internal/soak"
	"dsisim/internal/stats"
)

func main() {
	wl := flag.String("workload", "em3d", "workload: "+strings.Join(dsisim.Workloads(), " "))
	var labels []string
	for _, l := range proto.Labels() {
		labels = append(labels, l.Name)
	}
	protoLabel := flag.String("protocol", "SC", "protocol: "+strings.Join(labels, " "))
	procs := flag.Int("procs", 32, "simulated processors")
	cacheBytes := flag.Int("cachebytes", 256*1024, "simulated cache size per node in bytes")
	useCache := flag.Bool("cache", false, "memoize through a content-addressed result cache and verify the hit is bit-identical")
	cacheMB := flag.Int64("cachemb", 256, "result-cache budget in MiB (with -cache)")
	latency := flag.Int64("latency", 100, "network latency in cycles")
	testScale := flag.Bool("test", false, "use tiny test-scale inputs")
	faults := flag.String("faults", "", "fault-injection spec, e.g. drop=0.01,dup=0.005,seed=7 (see docs/FAULTS.md)")
	replay := flag.String("replay", "", "replay a persisted soak failure spec exactly as its campaign cell ran")
	flag.Parse()

	if *replay != "" {
		if err := runReplay(*replay); err != nil {
			fmt.Fprintln(os.Stderr, "dsisim:", err)
			os.Exit(1)
		}
		return
	}

	cfg := dsisim.Config{
		Workload:       *wl,
		Protocol:       dsisim.Protocol(*protoLabel),
		Processors:     *procs,
		CacheBytes:     *cacheBytes,
		NetworkLatency: *latency,
	}
	if *testScale {
		cfg.Scale = dsisim.ScaleTest
	}
	if *faults != "" {
		fc, err := dsisim.ParseFaults(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsisim:", err)
			os.Exit(1)
		}
		cfg.Faults = &fc
	}
	var cache *dsisim.ResultCache
	if *useCache {
		cache = dsisim.NewResultCache(*cacheMB << 20)
		cfg.Cache = cache
	}
	res, err := dsisim.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsisim:", err)
		os.Exit(1)
	}
	if cache != nil {
		// Second pass: must be served from memory, bit-identical.
		memo, err := dsisim.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsisim:", err)
			os.Exit(1)
		}
		if !reflect.DeepEqual(res, memo) {
			fmt.Fprintln(os.Stderr, "dsisim: memoized result differs from computed result")
			os.Exit(1)
		}
		s := cache.Stats()
		if s.Hits != 1 || s.Misses != 1 {
			fmt.Fprintf(os.Stderr, "dsisim: cache self-check expected 1 hit / 1 miss, got %d / %d\n", s.Hits, s.Misses)
			os.Exit(1)
		}
	}

	fmt.Printf("workload   %s\nprotocol   %s\nprocessors %d\ncache      %d bytes, 4-way, 32-byte blocks\nnetwork    %d cycles\n\n",
		*wl, *protoLabel, *procs, *cacheBytes, *latency)
	fmt.Printf("execution time (measured region): %d cycles\n", res.ExecTime)
	fmt.Printf("total time (with initialization): %d cycles\n", res.TotalTime)
	fmt.Printf("barrier episodes: %d\n\n", res.Barriers)

	bt := stats.Table{Title: "cycle breakdown (all processors)", Header: []string{"category", "cycles", "share"}}
	for _, c := range stats.Categories() {
		v := res.Breakdown.Cycles[c]
		if v == 0 {
			continue
		}
		bt.AddRow(c.String(), fmt.Sprint(v), stats.Pct(res.Breakdown.Share(c)))
	}
	fmt.Println(bt.Render())

	mt := stats.Table{Title: "network messages (measured region)", Header: []string{"kind", "count"}}
	type kv struct {
		k netsim.Kind
		v int64
	}
	var kinds []kv
	for k, v := range res.Messages.ByKind {
		if v > 0 {
			kinds = append(kinds, kv{netsim.Kind(k), v})
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].v > kinds[j].v })
	for _, e := range kinds {
		mt.AddRow(e.k.String(), fmt.Sprint(e.v))
	}
	mt.AddRow("TOTAL", fmt.Sprint(res.Messages.Total()))
	mt.AddRow("invalidation-class", fmt.Sprint(res.Messages.Invalidation()))
	fmt.Println(mt.Render())

	var si, tear, flushes int64
	for _, cs := range res.Cache {
		si += cs.SIReceived
		tear += cs.TearOffRecv
		flushes += cs.SyncFlushes
	}
	fmt.Printf("DSI activity: %d marked blocks received (%d tear-off), %d sync flushes, %d FIFO displacements\n",
		si, tear, flushes, res.FIFODisplacements)

	if cfg.Faults != nil {
		f := res.Faults
		var timeouts, retries, nacks int64
		for _, cs := range res.Cache {
			timeouts += cs.Timeouts
			retries += cs.Retries
			nacks += cs.NacksRecv
		}
		for _, ds := range res.Dir {
			timeouts += ds.Timeouts
			retries += ds.RetriesSent
		}
		fmt.Printf("faults: %d dropped, %d duplicated, %d delayed (%d converted, %d scripted) over %d decisions\n",
			f.Dropped, f.Duplicated, f.Delayed, f.Converted, f.Scripted, f.Decisions)
		fmt.Printf("recovery: %d timeouts, %d retransmissions, %d NACKs\n", timeouts, retries, nacks)
	}

	if cache != nil {
		fmt.Println()
		fmt.Println(cache.Stats().Table().Render())
		fmt.Println("cache self-check: memoized result bit-identical to computed result")
	}
}

// runReplay re-runs one soak spec exactly as its campaign cell ran.
func runReplay(path string) error {
	spec, err := soak.LoadSpec(path)
	if err != nil {
		return err
	}
	fmt.Printf("soak spec %s: %s under %s, template %s, seed %016x",
		path, spec.Workload, spec.Protocol, spec.Template, spec.Seed)
	if spec.Litmus != nil {
		fmt.Printf(", %d litmus ops", len(spec.Litmus.Ops))
	}
	if spec.Faults != nil {
		fmt.Printf(", %d fault rules", len(spec.Faults.Rules))
	}
	fmt.Println()
	if spec.Err != "" {
		fmt.Printf("  pinned failure: %s\n", spec.Err)
	}
	if err := spec.Replay(); err != nil {
		fmt.Printf("FAIL %v\n", err)
		return fmt.Errorf("soak spec still fails")
	}
	fmt.Println("ok   cell replays clean")
	return nil
}
