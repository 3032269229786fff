// Command dsisim runs one simulation cell and prints a detailed report:
// timing breakdown per the paper's Figure 3 categories, message counts by
// kind, and DSI activity. It is the single-cell driver: any cell it runs,
// replays included, can carry the coherence-event sink.
//
// Usage:
//
//	dsisim -workload em3d -protocol V [-procs 32] [-cachebytes 262144] [-latency 100] [-test] [-faults spec]
//	dsisim -replay spec.json
//	dsisim ... [-events [-node n] [-block 0xaddr] [-txn id] [-from c] [-to c] [-kinds k,k] [-limit n]]
//	           [-blocks] [-chrome f]
//
// -cache runs the cell twice through a content-addressed result cache
// (budget -cachemb): once computed, once memoized. The two results must be
// bit-identical — the command fails otherwise — and the cache counters are
// printed, making the flag a quick self-check of the memoization layer.
//
// -replay loads a persisted soak failure spec (`dsibench -soak` or `-fuzz`,
// internal/soak; the committed corpus lives in testdata/soak-corpus/) and
// re-runs it exactly as its campaign cell ran: same workload, protocol,
// fault plan, and seeds. The spec fixes the cell, so the flags that shape
// one (-workload, -protocol, -procs, -cachebytes, -latency, -test, -faults,
// -cache, -cachemb) are errors with -replay. The exit status is nonzero if
// the spec is invalid or the cell still fails.
//
// Three flags attach the coherence-event sink (docs/OBSERVABILITY.md) to
// the cell and render what it recorded after the report:
//
//   - -events prints the event stream, one line per event, filtered by
//     -node, -block, -txn, -from, -to and -kinds (names as in the schema,
//     e.g. msg-send,fifo-displace) and capped at -limit lines;
//   - -blocks prints the block-lifetime metrics tables (time-in-state
//     histograms, premature-self-invalidation and echo-loss counters,
//     transaction latencies);
//   - -chrome f writes Chrome trace_event JSON for chrome://tracing or
//     https://ui.perfetto.dev.
//
// A sink run bypasses the result cache, so the sink flags are errors with
// -cache. For example:
//
//	dsisim -workload em3d -test -procs 8 -protocol V -chrome em3d.json
//	dsisim -workload sparse -procs 8 -protocol V-FIFO -events -kinds fifo-displace -limit 10
//	dsisim -workload em3d -procs 8 -protocol V -cachebytes 32768 -blocks
//	dsisim -replay testdata/soak-corpus/<spec>.json -events -limit 20
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"dsisim"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/obs"
	"dsisim/internal/proto"
	"dsisim/internal/soak"
	"dsisim/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "dsisim:", err)
		os.Exit(1)
	}
}

// replayFixed lists the flags whose values a -replay spec fixes.
var replayFixed = []string{"workload", "protocol", "procs", "cachebytes", "latency", "test", "faults", "cache", "cachemb"}

// run parses args and runs the cell they describe, writing the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dsisim", flag.ContinueOnError)
	wl := fs.String("workload", "em3d", "workload: "+strings.Join(dsisim.Workloads(), " "))
	var labels []string
	for _, l := range proto.Labels() {
		labels = append(labels, l.Name)
	}
	protoLabel := fs.String("protocol", "SC", "protocol: "+strings.Join(labels, " "))
	procs := fs.Int("procs", 32, "simulated processors")
	cacheBytes := fs.Int("cachebytes", 256*1024, "simulated cache size per node in bytes")
	useCache := fs.Bool("cache", false, "memoize through a content-addressed result cache and verify the hit is bit-identical")
	cacheMB := fs.Int64("cachemb", 256, "result-cache budget in MiB (with -cache)")
	latency := fs.Int64("latency", 100, "network latency in cycles")
	testScale := fs.Bool("test", false, "use tiny test-scale inputs")
	faults := fs.String("faults", "", "fault-injection spec, e.g. drop=0.01,dup=0.005,seed=7 (see docs/FAULTS.md)")
	replay := fs.String("replay", "", "replay a persisted soak failure spec exactly as its campaign cell ran")
	var out sinkOutput
	fs.BoolVar(&out.events, "events", false, "attach the coherence-event sink and print the filtered event stream")
	fs.BoolVar(&out.blocks, "blocks", false, "attach the coherence-event sink and print the block-lifetime metrics tables")
	fs.StringVar(&out.chrome, "chrome", "", "attach the coherence-event sink and write Chrome trace_event JSON to this file")
	node := fs.Int("node", -1, "with -events: only events at (or messaging) this node")
	block := fs.String("block", "", "with -events: only events for this block address (hex)")
	txn := fs.Uint64("txn", 0, "with -events: only events of this transaction id")
	from := fs.Int64("from", 0, "with -events: only events at cycle >= from")
	to := fs.Int64("to", 0, "with -events: only events at cycle <= to (0 = unbounded)")
	kinds := fs.String("kinds", "", "with -events: comma-separated event kinds (e.g. msg-send,self-inval); empty = all")
	fs.IntVar(&out.limit, "limit", 200, "with -events: max events printed (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replay != "" {
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range replayFixed {
			if set[name] {
				return fmt.Errorf("-%s does not apply with -replay: the spec fixes the cell", name)
			}
		}
	}
	if out.events || out.blocks || out.chrome != "" {
		if *useCache {
			return errors.New("-cache cannot combine with -events, -blocks or -chrome: a sink run bypasses the result cache")
		}
		out.sink = dsisim.NewCoherenceSink()
	}

	out.filter = obs.NewFilter()
	out.filter.Node = *node
	out.filter.Txn = *txn
	out.filter.From = event.Time(*from)
	out.filter.To = event.Time(*to)
	if *block != "" {
		a, err := strconv.ParseUint(strings.TrimPrefix(*block, "0x"), 16, 64)
		if err != nil {
			return fmt.Errorf("-block: %w", err)
		}
		out.filter.Block = mem.Addr(a)
	}
	for _, name := range strings.Split(*kinds, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		k, ok := obs.ParseKind(name)
		if !ok {
			var known []string
			for k := obs.Kind(0); k < obs.NumKinds; k++ {
				known = append(known, k.String())
			}
			return fmt.Errorf("-kinds: unknown event kind %q (known: %s)", name, strings.Join(known, ", "))
		}
		out.filter = out.filter.WithKind(k)
	}

	if *replay != "" {
		return runReplay(w, *replay, out)
	}

	cfg := dsisim.Config{
		Workload:       *wl,
		Protocol:       dsisim.Protocol(*protoLabel),
		Processors:     *procs,
		CacheBytes:     *cacheBytes,
		NetworkLatency: *latency,
		Sink:           out.sink,
	}
	if *testScale {
		cfg.Scale = dsisim.ScaleTest
	}
	if *faults != "" {
		fc, err := dsisim.ParseFaults(*faults)
		if err != nil {
			return err
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
		return err
	}
	if cache != nil {
		// Second pass: must be served from memory, bit-identical.
		memo, err := dsisim.Run(cfg)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res, memo) {
			return errors.New("memoized result differs from computed result")
		}
		s := cache.Stats()
		if s.Hits != 1 || s.Misses != 1 {
			return fmt.Errorf("cache self-check expected 1 hit / 1 miss, got %d / %d", s.Hits, s.Misses)
		}
	}

	fmt.Fprintf(w, "workload   %s\nprotocol   %s\nprocessors %d\ncache      %d bytes, 4-way, 32-byte blocks\nnetwork    %d cycles\n\n",
		*wl, *protoLabel, *procs, *cacheBytes, *latency)
	fmt.Fprintf(w, "execution time (measured region): %d cycles\n", res.ExecTime)
	fmt.Fprintf(w, "total time (with initialization): %d cycles\n", res.TotalTime)
	fmt.Fprintf(w, "barrier episodes: %d\n\n", res.Barriers)

	bt := stats.Table{Title: "cycle breakdown (all processors)", Header: []string{"category", "cycles", "share"}}
	for _, c := range stats.Categories() {
		v := res.Breakdown.Cycles[c]
		if v == 0 {
			continue
		}
		bt.AddRow(c.String(), fmt.Sprint(v), stats.Pct(res.Breakdown.Share(c)))
	}
	fmt.Fprintln(w, bt.Render())

	mt := stats.Table{Title: "network messages (measured region)", Header: []string{"kind", "count"}}
	type kv struct {
		k netsim.Kind
		v int64
	}
	var msgKinds []kv
	for k, v := range res.Messages.ByKind {
		if v > 0 {
			msgKinds = append(msgKinds, kv{netsim.Kind(k), v})
		}
	}
	sort.Slice(msgKinds, func(i, j int) bool { return msgKinds[i].v > msgKinds[j].v })
	for _, e := range msgKinds {
		mt.AddRow(e.k.String(), fmt.Sprint(e.v))
	}
	mt.AddRow("TOTAL", fmt.Sprint(res.Messages.Total()))
	mt.AddRow("invalidation-class", fmt.Sprint(res.Messages.Invalidation()))
	fmt.Fprintln(w, mt.Render())

	var si, tear, flushes int64
	for _, cs := range res.Cache {
		si += cs.SIReceived
		tear += cs.TearOffRecv
		flushes += cs.SyncFlushes
	}
	fmt.Fprintf(w, "DSI activity: %d marked blocks received (%d tear-off), %d sync flushes, %d FIFO displacements\n",
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
		fmt.Fprintf(w, "faults: %d dropped, %d duplicated, %d delayed (%d converted, %d scripted) over %d decisions\n",
			f.Dropped, f.Duplicated, f.Delayed, f.Converted, f.Scripted, f.Decisions)
		fmt.Fprintf(w, "recovery: %d timeouts, %d retransmissions, %d NACKs\n", timeouts, retries, nacks)
	}

	if cache != nil {
		fmt.Fprintln(w)
		fmt.Fprintln(w, cache.Stats().Table().Render())
		fmt.Fprintln(w, "cache self-check: memoized result bit-identical to computed result")
	}
	return out.render(w)
}

// runReplay re-runs one soak spec exactly as its campaign cell ran, with
// out's sink recording it.
func runReplay(w io.Writer, path string, out sinkOutput) error {
	spec, err := soak.LoadSpec(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "soak spec %s: %s under %s, template %s, seed %016x",
		path, spec.Workload, spec.Protocol, spec.Template, spec.Seed)
	if spec.Litmus != nil {
		fmt.Fprintf(w, ", %d litmus ops", len(spec.Litmus.Ops))
	}
	if spec.Faults != nil {
		fmt.Fprintf(w, ", %d fault rules", len(spec.Faults.Rules))
	}
	fmt.Fprintln(w)
	if spec.Err != "" {
		fmt.Fprintf(w, "  pinned failure: %s\n", spec.Err)
	}
	replayErr := spec.Replay(out.sink)
	if err := out.render(w); err != nil {
		return err
	}
	if replayErr != nil {
		fmt.Fprintf(w, "FAIL %v\n", replayErr)
		return errors.New("soak spec still fails")
	}
	fmt.Fprintln(w, "ok   cell replays clean")
	return nil
}

// sinkOutput is the coherence-event sink the sink flags attach to a cell
// (nil when none is set) and what they ask to render from it.
type sinkOutput struct {
	sink   *obs.Sink
	events bool
	filter obs.Filter
	limit  int
	blocks bool
	chrome string
}

// render writes each requested rendering of the recorded stream, each
// section preceded by a blank line.
func (o sinkOutput) render(w io.Writer) error {
	sink := o.sink
	if sink == nil {
		return nil
	}
	if o.events {
		fmt.Fprintln(w)
		matched, err := sink.WriteText(w, o.filter, o.limit)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d coherence events recorded, %d matched\n", sink.Len(), matched)
	}
	if o.blocks {
		fmt.Fprintln(w)
		fmt.Fprint(w, sink.Metrics().Render())
	}
	if o.chrome != "" {
		f, err := os.Create(o.chrome)
		if err != nil {
			return err
		}
		if err := sink.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%d coherence events -> %s\n", sink.Len(), o.chrome)
	}
	return nil
}
