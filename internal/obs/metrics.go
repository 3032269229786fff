package obs

import (
	"fmt"
	"math/bits"

	"dsisim/internal/cache"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/stats"
)

// HistBuckets is the number of power-of-two duration buckets: bucket i
// holds durations in [2^i, 2^(i+1)), with the last bucket a catch-all.
const HistBuckets = 24

// Histogram is a log2-bucketed duration histogram.
type Histogram struct {
	Buckets [HistBuckets]int64
	Count   int64
	Sum     int64
	Max     int64
}

// Observe adds one duration sample (negative samples are clamped to 0).
func (h *Histogram) Observe(d int64) {
	if d < 0 {
		d = 0
	}
	i := bits.Len64(uint64(d)) // 0 -> bucket 0, [2^i,2^(i+1)) -> bucket i
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += d
	if d > h.Max {
		h.Max = d
	}
}

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// BucketLabel names bucket i ("[2^i, 2^(i+1)) cycles").
func BucketLabel(i int) string {
	if i == 0 {
		return "<2"
	}
	if i == HistBuckets-1 {
		return fmt.Sprintf(">=%d", int64(1)<<uint(i))
	}
	return fmt.Sprintf("%d-%d", int64(1)<<uint(i), int64(1)<<uint(i+1)-1)
}

// BlockMetrics are the per-block lifetime measurements a Sink derives from
// the event stream. All cycle quantities are simulated cycles; metrics
// cover the whole run including warm-up (the stream has no warm-up
// boundary).
type BlockMetrics struct {
	// TimeShared and TimeExclusive are residency histograms: how long a
	// cached copy stayed in the state before leaving it (by invalidation,
	// downgrade, eviction, or self-invalidation).
	TimeShared    Histogram
	TimeExclusive Histogram
	// ReFetchGap measures, for each re-install, the cycles between the
	// node's copy disappearing and the node fetching the block again — the
	// "did self-invalidation fire too early?" distribution.
	ReFetchGap Histogram
	// TxnLatency measures directory busy periods: transaction start (first
	// invalidation/recall sent) to completion (all acks collected).
	TxnLatency Histogram

	// Transactions counts directory transactions opened.
	Transactions int64
	// SelfInvals counts sync-point self-invalidations (including tear-off
	// flash-clears); FIFODisplacements counts early self-invalidations
	// forced by a full FIFO.
	SelfInvals        int64
	FIFODisplacements int64
	// PrematureSelfInvals counts self-invalidated blocks the same node
	// missed on again within DefaultPrematureWindow cycles —
	// self-invalidations that destroyed a copy the node still wanted.
	PrematureSelfInvals int64
	// EchoLosses counts miss requests that carried no version echo although
	// an earlier grant had delivered a version to this node — the frame was
	// recycled and the tag history lost, so the directory cannot match
	// versions (the versions-vs-states divergence, measured directly).
	EchoLosses int64
	// TearOffGrants counts untracked (tear-off) grants.
	TearOffGrants int64
	// FaultsInjected counts messages the fault plan dropped, duplicated, or
	// delayed; RetryTimeouts counts hardened-controller timer firings. Both
	// are zero outside fault-injection runs (docs/FAULTS.md).
	FaultsInjected int64
	RetryTimeouts  int64
}

// blockTrack is the streaming per-(node, block) state behind BlockMetrics.
type blockTrack struct {
	state      cache.State
	since      event.Time
	lastGone   event.Time // when the copy last disappeared (any cause)
	haveGone   bool
	lastSelfIn event.Time // when the copy was last self-invalidated
	haveSelfIn bool
	hadVer     bool // the most recent install carried a version number
}

// key packs (node, block) into one block-table index. Node ids are < 64
// (directory.NodeSet is a 64-bit full map), so 6 bits suffice. Composite
// keys stay dense for the configured workloads; larger address spaces spill
// into the block table's overflow region.
func key(node int32, b mem.Addr) uint64 {
	return mem.BlockIndex(b)<<6 | uint64(node)&63
}

//dsi:hotpath
func (s *Sink) track(node int32, b mem.Addr) *blockTrack {
	return s.blocks.Ensure(key(node, b))
}

// observe updates the streaming metrics with e. It runs for every emitted
// event.
func (s *Sink) observe(e *Event) {
	m := &s.m
	switch e.Kind {
	case MsgSend:
		// Only fresh requests signal premature self-invalidation or a lost
		// version echo; the remaining kinds carry no streaming signal.
		if e.Msg == netsim.GetS || e.Msg == netsim.GetX || e.Msg == netsim.Upgrade {
			t := s.track(e.Node, e.Addr)
			if t.haveSelfIn && e.Cycle-t.lastSelfIn <= DefaultPrematureWindow {
				m.PrematureSelfInvals++
				t.haveSelfIn = false // count each self-invalidation at most once
			}
			if e.Flags&FlagHasVer == 0 && t.hadVer {
				m.EchoLosses++
				t.hadVer = false // one loss per lost frame
			}
		}
	case CacheState:
		s.leaveState(e.Node, e.Addr, e.Cycle, cache.State(e.Old))
		t := s.track(e.Node, e.Addr)
		t.state = cache.State(e.New)
		t.since = e.Cycle
		if cache.State(e.New) == cache.Invalid {
			t.lastGone, t.haveGone = e.Cycle, true
		} else if cache.State(e.Old) == cache.Invalid {
			if t.haveGone {
				m.ReFetchGap.Observe(int64(e.Cycle - t.lastGone))
			}
			t.hadVer = e.Flags&FlagHasVer != 0
		}
	case SelfInval, FIFODisplace:
		if e.Kind == SelfInval {
			m.SelfInvals++
		} else {
			m.FIFODisplacements++
		}
		s.leaveState(e.Node, e.Addr, e.Cycle, cache.State(e.Old))
		t := s.track(e.Node, e.Addr)
		t.state = cache.Invalid
		t.since = e.Cycle
		t.lastGone, t.haveGone = e.Cycle, true
		t.lastSelfIn, t.haveSelfIn = e.Cycle, true
	case TearOffGrant:
		m.TearOffGrants++
	case TxnStart:
		m.Transactions++
		// Transaction ids are assigned sequentially from 1, so a plain
		// slice indexed by id replaces the open-transaction map.
		for uint64(len(s.open)) <= e.Txn {
			s.open = append(s.open, 0)
		}
		s.open[e.Txn] = e.Cycle + 1
	case TxnEnd:
		if e.Txn < uint64(len(s.open)) && s.open[e.Txn] != 0 {
			m.TxnLatency.Observe(int64(e.Cycle - (s.open[e.Txn] - 1)))
			s.open[e.Txn] = 0
		}
	case Fault:
		m.FaultsInjected++
	case Timeout:
		m.RetryTimeouts++
	case MsgRecv, DirState:
		// No streaming metrics derive from deliveries or directory-side
		// transitions; they are recorded for the event stream only.
	}
}

// leaveState closes the residency interval a copy is leaving.
func (s *Sink) leaveState(node int32, b mem.Addr, now event.Time, old cache.State) {
	if old == cache.Invalid {
		return
	}
	t := s.track(node, b)
	d := int64(now - t.since)
	switch old {
	case cache.Shared:
		s.m.TimeShared.Observe(d)
	case cache.Exclusive:
		s.m.TimeExclusive.Observe(d)
	case cache.Invalid:
		// Filtered above: a copy leaving Invalid has no residency interval.
	}
}

// Metrics returns a snapshot of the lifetime metrics derived so far.
// Residency intervals still open (copies alive at the end of the run) are
// not counted.
func (s *Sink) Metrics() *BlockMetrics {
	if s == nil {
		return nil
	}
	m := s.m
	return &m
}

// Tables renders the metrics as plain-text tables in the house style.
func (m *BlockMetrics) Tables() []stats.Table {
	counters := stats.Table{
		Title:  "Block lifetime counters",
		Header: []string{"counter", "value"},
	}
	counters.AddRow("transactions", fmt.Sprint(m.Transactions))
	counters.AddRow("self-invalidations", fmt.Sprint(m.SelfInvals))
	counters.AddRow("fifo displacements", fmt.Sprint(m.FIFODisplacements))
	counters.AddRow(fmt.Sprintf("premature self-invals (re-miss <= %d cyc)", DefaultPrematureWindow),
		fmt.Sprint(m.PrematureSelfInvals))
	counters.AddRow("version echo losses", fmt.Sprint(m.EchoLosses))
	counters.AddRow("tear-off grants", fmt.Sprint(m.TearOffGrants))
	if m.FaultsInjected > 0 || m.RetryTimeouts > 0 {
		counters.AddRow("faults injected", fmt.Sprint(m.FaultsInjected))
		counters.AddRow("retry timeouts", fmt.Sprint(m.RetryTimeouts))
	}

	res := stats.Table{
		Title:  "Time in state before leaving it (cycles)",
		Header: []string{"state", "samples", "mean", "max"},
	}
	add := func(name string, h *Histogram) {
		res.AddRow(name, fmt.Sprint(h.Count), fmt.Sprintf("%.0f", h.Mean()), fmt.Sprint(h.Max))
	}
	add("Shared", &m.TimeShared)
	add("Exclusive", &m.TimeExclusive)
	add("(re-fetch gap)", &m.ReFetchGap)
	add("(txn latency)", &m.TxnLatency)

	hist := stats.Table{
		Title:  "Residency histograms (log2 duration buckets)",
		Header: []string{"cycles", "shared", "exclusive", "re-fetch gap", "txn latency"},
	}
	top := 0
	for i := 0; i < HistBuckets; i++ {
		if m.TimeShared.Buckets[i]+m.TimeExclusive.Buckets[i]+m.ReFetchGap.Buckets[i]+m.TxnLatency.Buckets[i] > 0 {
			top = i
		}
	}
	for i := 0; i <= top; i++ {
		hist.AddRow(BucketLabel(i),
			fmt.Sprint(m.TimeShared.Buckets[i]),
			fmt.Sprint(m.TimeExclusive.Buckets[i]),
			fmt.Sprint(m.ReFetchGap.Buckets[i]),
			fmt.Sprint(m.TxnLatency.Buckets[i]))
	}
	return []stats.Table{counters, res, hist}
}

// Render returns the tables concatenated as one report.
func (m *BlockMetrics) Render() string {
	out := ""
	for i, t := range m.Tables() {
		if i > 0 {
			out += "\n"
		}
		out += t.Render()
	}
	return out
}
