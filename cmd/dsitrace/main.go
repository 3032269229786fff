// Command dsitrace records a workload's operation stream and writes it as
// text, summarizes / replays a previously recorded trace, or records a
// coherence-event trace of a live run and renders it as text or Chrome
// trace_event JSON.
//
// Usage:
//
//	dsitrace -workload sparse -test > sparse.trace     # record operations
//	dsitrace -summary < sparse.trace                   # histogram
//	dsitrace -replay -protocol V < sparse.trace        # re-simulate
//
//	# record protocol-level coherence events (see docs/OBSERVABILITY.md):
//	dsitrace -coherence-trace -workload em3d -test -protocol V
//	dsitrace -coherence-trace -workload em3d -test -protocol V -chrome em3d.json
//	dsitrace -coherence-trace -workload sparse -test -protocol V-FIFO \
//	    -kinds fifo-displace,msg-send -node 3 -limit 50
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"dsisim"
	"dsisim/internal/event"
	"dsisim/internal/machine"
	"dsisim/internal/mem"
	"dsisim/internal/obs"
	"dsisim/internal/proto"
	"dsisim/internal/trace"
	"dsisim/internal/workload"
)

func main() {
	wl := flag.String("workload", "", "workload to record (writes the trace to stdout)")
	procs := flag.Int("procs", 8, "simulated processors")
	testScale := flag.Bool("test", false, "use tiny test-scale inputs")
	summary := flag.Bool("summary", false, "summarize a trace from stdin")
	replay := flag.Bool("replay", false, "replay a trace from stdin and report execution time")
	var labels []string
	for _, l := range proto.Labels() {
		labels = append(labels, l.Name)
	}
	protoLabel := flag.String("protocol", "SC", "protocol label for -replay and -coherence-trace: "+strings.Join(labels, " "))

	coh := flag.Bool("coherence-trace", false, "run -workload with the coherence-event sink and print the event stream")
	chrome := flag.String("chrome", "", "with -coherence-trace: write Chrome trace_event JSON to this file (open in chrome://tracing or Perfetto)")
	node := flag.Int("node", -1, "with -coherence-trace: only events at (or messaging) this node")
	block := flag.String("block", "", "with -coherence-trace: only events for this block address (hex)")
	txn := flag.Uint64("txn", 0, "with -coherence-trace: only events of this transaction id")
	from := flag.Int64("from", 0, "with -coherence-trace: only events at cycle >= from")
	to := flag.Int64("to", 0, "with -coherence-trace: only events at cycle <= to (0 = unbounded)")
	kinds := flag.String("kinds", "", "with -coherence-trace: comma-separated event kinds (e.g. msg-send,self-inval); empty = all")
	limit := flag.Int("limit", 200, "with -coherence-trace: max events printed (0 = all)")
	metrics := flag.Bool("metrics", true, "with -coherence-trace: print the block-lifetime metrics tables")
	flag.Parse()

	switch {
	case *coh:
		coherenceTrace(*wl, *procs, *testScale, *protoLabel, *chrome,
			*node, *block, *txn, *from, *to, *kinds, *limit, *metrics)
	case *wl != "":
		scale := workload.ScalePaper
		if *testScale {
			scale = workload.ScaleTest
		}
		prog, err := workload.New(*wl, scale)
		fail(err)
		tr, res := trace.Record(machine.Config{Processors: *procs}, prog)
		if res.Failed() {
			fail(fmt.Errorf("recording run failed: %s", res.Errors[0]))
		}
		fail(tr.Write(os.Stdout))
	case *summary:
		tr, err := trace.Read(os.Stdin)
		fail(err)
		fmt.Printf("workload %s, %d processors, %d events\n", tr.Workload, tr.Procs, len(tr.Events))
		counts := tr.Counts()
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Printf("  %-8s %d\n", k, counts[k])
		}
	case *replay:
		tr, err := trace.Read(os.Stdin)
		fail(err)
		l, err := proto.LabelOf(*protoLabel)
		fail(err)
		cfg := machine.Config{Processors: tr.Procs, Consistency: l.Consistency, Policy: l.Policy}
		res := machine.New(cfg).Run(trace.NewReplay(tr))
		if res.Failed() {
			fail(fmt.Errorf("replay failed: %s", res.Errors[0]))
		}
		fmt.Printf("replayed %d events on %d processors: %d cycles, %d messages\n",
			len(tr.Events), tr.Procs, res.TotalTime, res.Messages.Total())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// coherenceTrace runs the workload with a coherence-event sink attached and
// renders the recorded stream.
func coherenceTrace(wl string, procs int, testScale bool, protoLabel, chrome string,
	node int, block string, txn uint64, from, to int64, kinds string, limit int, metrics bool) {
	if wl == "" {
		fail(fmt.Errorf("-coherence-trace needs -workload"))
	}
	scale := dsisim.ScalePaper
	if testScale {
		scale = dsisim.ScaleTest
	}
	sink := dsisim.NewCoherenceSink()
	res, err := dsisim.Run(dsisim.Config{
		Workload:   wl,
		Scale:      scale,
		Protocol:   dsisim.Protocol(protoLabel),
		Processors: procs,
		Sink:       sink,
	})
	fail(err)

	if chrome != "" {
		f, err := os.Create(chrome)
		fail(err)
		fail(sink.WriteChrome(f))
		fail(f.Close())
		fmt.Printf("%s/%s on %d procs: %d cycles, %d coherence events -> %s\n",
			wl, protoLabel, procs, res.TotalTime, sink.Len(), chrome)
		return
	}

	filt := obs.NewFilter()
	filt.Node = node
	filt.Txn = txn
	filt.From = event.Time(from)
	filt.To = event.Time(to)
	if block != "" {
		a, err := strconv.ParseUint(strings.TrimPrefix(block, "0x"), 16, 64)
		fail(err)
		filt.Block = mem.Addr(a)
	}
	for _, name := range strings.Split(kinds, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		k, err := kindByName(name)
		fail(err)
		filt = filt.WithKind(k)
	}

	matched, err := sink.WriteText(os.Stdout, filt, limit)
	fail(err)
	fmt.Printf("\n%s/%s on %d procs: %d cycles, %d coherence events recorded, %d matched\n",
		wl, protoLabel, procs, res.TotalTime, sink.Len(), matched)
	if metrics {
		fmt.Println()
		fmt.Print(res.Blocks.Render())
	}
}

// kindByName resolves an event-kind name ("msg-send", "self-inval", ...) to
// its obs.Kind.
func kindByName(name string) (obs.Kind, error) {
	for k := obs.Kind(0); k < obs.NumKinds; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	var known []string
	for k := obs.Kind(0); k < obs.NumKinds; k++ {
		known = append(known, k.String())
	}
	return 0, fmt.Errorf("unknown event kind %q (known: %s)", name, strings.Join(known, ", "))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsitrace:", err)
		os.Exit(1)
	}
}
