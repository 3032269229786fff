// Package obs is the coherence-event observability layer: a structured sink
// the protocol engines (internal/proto), the network (internal/netsim), and
// the machine emit into, one event per protocol message, state transition,
// self-invalidation, FIFO displacement, and tear-off grant.
//
// The layer exists because end-of-run aggregates cannot explain *why* a run
// diverges from the paper: the paper's whole argument is about message-level
// behaviour — which invalidations, acknowledgments, and self-invalidations
// happen and when. A Sink records that behaviour as a flat event stream
// carrying (cycle, node, block, transaction id, old/new state), and derives
// per-block lifetime metrics from it on the fly:
//
//   - time-in-state histograms (how long copies live Shared or Exclusive),
//   - a premature-self-invalidation counter (self-invalidated blocks the
//     same node re-missed on within a configurable window — the Figure 5
//     FIFO pathology, measured directly),
//   - an echo-loss counter (version-number misses whose frame was recycled
//     before the version could be echoed — the versions-vs-states
//     divergence, measured directly),
//   - a transaction-latency histogram (directory busy-period durations).
//
// Exporters turn the stream into a Chrome trace_event JSON that opens in
// chrome://tracing or Perfetto (WriteChrome) or a filtered plain-text
// listing (WriteText). docs/OBSERVABILITY.md documents the schema and its
// stability guarantees.
//
// # Zero overhead when disabled
//
// Every emission helper is safe on a nil *Sink and returns immediately, and
// the hot call sites in proto additionally branch on the nil check before
// computing event fields, so a machine built without a sink runs the exact
// allocation-free steady state PR 1 established (BenchmarkRunOne allocs/op
// is pinned by TestNilSinkAllocsUnchanged). When enabled, event records are
// appended into pooled fixed-size chunks: steady-state recording allocates
// only when the stream outgrows the chunks already on the sink's free list.
//
// A Sink is single-run, single-goroutine state, like the machine that feeds
// it: do not share one sink between concurrently running machines. Reset
// returns a sink to its empty state while keeping chunk capacity.
package obs

import (
	"fmt"
	"io"

	"dsisim/internal/blockmap"
	"dsisim/internal/cache"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/faultinj"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
)

// Kind classifies one coherence event.
type Kind uint8

const (
	// MsgSend: a protocol message was injected at Node (= Src) toward Peer.
	MsgSend Kind = iota
	// MsgRecv: a protocol message was delivered at Node (= Dst) from Peer.
	MsgRecv
	// CacheState: node Node's cached copy of Addr changed state Old -> New
	// (cache.State codes). Installs, invalidations, downgrades, evictions.
	CacheState
	// DirState: the home directory (Node) entry for Addr changed state
	// Old -> New (directory.State codes).
	DirState
	// SelfInval: node Node self-invalidated its copy of Addr at a
	// synchronization point (flush-at-sync, or the tear-off flash-clear when
	// FlagTearOff is set). Old holds the cache.State the copy had.
	SelfInval
	// FIFODisplace: node Node's FIFO self-invalidation buffer overflowed and
	// forced the copy of Addr out early — the Figure 5 pathology.
	FIFODisplace
	// TearOffGrant: the home directory (Node) handed Peer an untracked
	// (tear-off) copy of Addr.
	TearOffGrant
	// TxnStart: the home directory (Node) opened a transaction for Addr on
	// behalf of requester Peer — invalidations or a recall are outstanding
	// and the block is busy. Msg holds the request kind.
	TxnStart
	// TxnEnd: all acknowledgments arrived and the transaction completed.
	TxnEnd
	// Fault: the fault plan dropped, duplicated, or delayed a message sent
	// from Node to Peer. Msg holds the message kind and Old the
	// faultinj.Action code.
	Fault
	// Timeout: a hardened controller's per-transaction timer fired and the
	// request (cache side, New == 0) or the outstanding coherence actions
	// (directory side, New == 1) were re-sent. Old holds the retry count
	// (clamped to 255).
	Timeout
	// NumKinds bounds the enumeration.
	NumKinds
)

var kindNames = [NumKinds]string{
	"msg-send", "msg-recv", "cache-state", "dir-state", "self-inval",
	"fifo-displace", "tearoff-grant", "txn-start", "txn-end", "fault",
	"timeout",
}

func (k Kind) String() string {
	if k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind resolves an event-kind name as produced by Kind.String.
func ParseKind(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event flag bits (Event.Flags).
const (
	// FlagSI: the message or copy was marked for self-invalidation.
	FlagSI uint8 = 1 << iota
	// FlagTearOff: the message or copy was untracked (tear-off).
	FlagTearOff
	// FlagHasVer: the message carried a version echo, or the installed copy
	// carried a version number.
	FlagHasVer
	// FlagLocal: the message never entered the network (Src == Dst).
	FlagLocal
)

// Event is one recorded coherence event. The schema (field semantics per
// Kind) is documented in docs/OBSERVABILITY.md; fields not listed for a
// kind are zero.
type Event struct {
	// Cycle is the simulated time the event happened.
	Cycle event.Time
	// Txn is the coherence transaction id (assigned per miss request at the
	// cache controller, propagated through every message the transaction
	// causes). 0 means "no transaction" (unsolicited traffic such as
	// writebacks and replacement hints).
	Txn uint64
	// Addr is the block address.
	Addr mem.Addr
	// Kind classifies the event.
	Kind Kind
	// Msg is the protocol message kind, for MsgSend/MsgRecv/TxnStart.
	Msg netsim.Kind
	// Node is where the event happened: the sender for MsgSend, the
	// receiver for MsgRecv, the cache's node for cache-side kinds, the home
	// node for directory-side kinds.
	Node int32
	// Peer is the other endpoint for messages, and the requester for
	// TxnStart/TxnEnd/TearOffGrant.
	Peer int32
	// Old and New are state codes for CacheState (cache.State) and DirState
	// (directory.State); Old is the pre-invalidation cache.State for
	// SelfInval/FIFODisplace.
	Old, New uint8
	// Flags holds the Flag* bits that applied.
	Flags uint8
}

// String renders the event as one line of the plain-text trace format.
func (e Event) String() string {
	switch e.Kind {
	case MsgSend:
		return fmt.Sprintf("[%8d] node%-2d > %-10s ->%d blk=%#x txn=%d%s",
			e.Cycle, e.Node, e.Msg, e.Peer, uint64(e.Addr), e.Txn, flagString(e.Flags))
	case MsgRecv:
		return fmt.Sprintf("[%8d] node%-2d < %-10s <-%d blk=%#x txn=%d%s",
			e.Cycle, e.Node, e.Msg, e.Peer, uint64(e.Addr), e.Txn, flagString(e.Flags))
	case CacheState:
		return fmt.Sprintf("[%8d] node%-2d cache %s->%s blk=%#x txn=%d%s",
			e.Cycle, e.Node, cache.State(e.Old), cache.State(e.New), uint64(e.Addr), e.Txn, flagString(e.Flags))
	case DirState:
		return fmt.Sprintf("[%8d] node%-2d dir   %s->%s blk=%#x txn=%d",
			e.Cycle, e.Node, directory.State(e.Old), directory.State(e.New), uint64(e.Addr), e.Txn)
	case SelfInval:
		return fmt.Sprintf("[%8d] node%-2d self-inval %s blk=%#x%s",
			e.Cycle, e.Node, cache.State(e.Old), uint64(e.Addr), flagString(e.Flags))
	case FIFODisplace:
		return fmt.Sprintf("[%8d] node%-2d fifo-displace %s blk=%#x%s",
			e.Cycle, e.Node, cache.State(e.Old), uint64(e.Addr), flagString(e.Flags))
	case TearOffGrant:
		return fmt.Sprintf("[%8d] node%-2d dir   tear-off ->%d blk=%#x txn=%d",
			e.Cycle, e.Node, e.Peer, uint64(e.Addr), e.Txn)
	case TxnStart:
		return fmt.Sprintf("[%8d] node%-2d dir   txn-start %s from %d blk=%#x txn=%d",
			e.Cycle, e.Node, e.Msg, e.Peer, uint64(e.Addr), e.Txn)
	case TxnEnd:
		return fmt.Sprintf("[%8d] node%-2d dir   txn-end   from %d blk=%#x txn=%d",
			e.Cycle, e.Node, e.Peer, uint64(e.Addr), e.Txn)
	case Fault:
		return fmt.Sprintf("[%8d] node%-2d x %-7s %-10s ->%d blk=%#x txn=%d",
			e.Cycle, e.Node, faultinj.Action(e.Old), e.Msg, e.Peer, uint64(e.Addr), e.Txn)
	case Timeout:
		side := "cache"
		if e.New == 1 {
			side = "dir"
		}
		return fmt.Sprintf("[%8d] node%-2d %-5s timeout retry=%d blk=%#x txn=%d",
			e.Cycle, e.Node, side, e.Old, uint64(e.Addr), e.Txn)
	default:
		return fmt.Sprintf("[%8d] node%-2d %s blk=%#x", e.Cycle, e.Node, e.Kind, uint64(e.Addr))
	}
}

func flagString(f uint8) string {
	if f == 0 {
		return ""
	}
	s := ""
	if f&FlagSI != 0 {
		s += " si"
	}
	if f&FlagTearOff != 0 {
		s += " tearoff"
	}
	if f&FlagHasVer != 0 {
		s += " ver"
	}
	if f&FlagLocal != 0 {
		s += " local"
	}
	return s
}

// Config parameterizes a Sink.
type Config struct {
	// PrematureWindow is the re-miss window (in cycles) that classifies a
	// self-invalidation as premature: if the same node misses on the block
	// again within the window, the self-invalidation threw the copy away too
	// early. 0 means DefaultPrematureWindow.
	PrematureWindow event.Time
	// MaxEvents caps the number of events retained (0 = unlimited). Metrics
	// keep streaming past the cap; only event-record storage stops, and
	// Dropped reports how many records were discarded, so the cap is never
	// silent.
	MaxEvents int
}

// DefaultPrematureWindow is 4× the paper's 100-cycle network latency: a
// re-miss that quickly means the block round-tripped home for nothing.
const DefaultPrematureWindow event.Time = 400

// chunkSize is the event-record pool granularity. One chunk is ~256 KiB;
// steady-state recording reuses chunks from the free list after Reset.
const chunkSize = 4096

// Sink records coherence events and streams per-block lifetime metrics.
// The zero value is NOT ready to use; call NewSink. All methods are safe on
// a nil receiver (they do nothing), so optional observability costs a
// predictable branch where disabled.
type Sink struct {
	cfg Config

	chunks [][]Event // filled chunks + the current tail chunk
	free   [][]Event // retired chunks available for reuse (after Reset)

	total   uint64 // events emitted (including dropped)
	dropped uint64 // events not retained because MaxEvents was reached

	nodes int // 1 + highest node id observed

	m      BlockMetrics
	blocks blockmap.Map[blockTrack] // keyed by key(node, block)
	open   []event.Time             // txn id -> start cycle + 1 (0 = not open)
}

// NewSink builds an empty sink.
func NewSink(cfg Config) *Sink {
	if cfg.PrematureWindow == 0 {
		cfg.PrematureWindow = DefaultPrematureWindow
	}
	s := &Sink{cfg: cfg}
	s.reset()
	return s
}

func (s *Sink) reset() {
	for _, c := range s.chunks {
		s.free = append(s.free, c[:0])
	}
	s.chunks = s.chunks[:0]
	s.total, s.dropped, s.nodes = 0, 0, 0
	s.m = BlockMetrics{PrematureWindow: s.cfg.PrematureWindow}
	s.blocks.Reset()
	clear(s.open)
}

// Reset empties the sink for reuse, returning event chunks to the free list
// so a reused sink records without reallocating.
func (s *Sink) Reset() {
	if s == nil {
		return
	}
	s.reset()
}

// Len returns the number of retained events.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	return int(s.total - s.dropped)
}

// Total returns the number of events emitted, retained or not.
func (s *Sink) Total() uint64 {
	if s == nil {
		return 0
	}
	return s.total
}

// Dropped returns the number of events discarded by the MaxEvents cap.
func (s *Sink) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped
}

// Nodes returns 1 + the highest node id observed.
func (s *Sink) Nodes() int {
	if s == nil {
		return 0
	}
	return s.nodes
}

// ForEach calls fn for every retained event in emission order.
func (s *Sink) ForEach(fn func(*Event)) {
	if s == nil {
		return
	}
	for _, c := range s.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

// Events returns a copy of the retained event stream.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	out := make([]Event, 0, s.Len())
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// Tail returns a copy of the last n retained events (fewer when the stream
// is shorter). The liveness watchdog uses it to attach recent history to
// diagnostic dumps.
func (s *Sink) Tail(n int) []Event {
	if s == nil || n <= 0 {
		return nil
	}
	if l := s.Len(); n > l {
		n = l
	}
	out := make([]Event, n)
	i := n
	for c := len(s.chunks) - 1; c >= 0 && i > 0; c-- {
		chunk := s.chunks[c]
		take := len(chunk)
		if take > i {
			take = i
		}
		copy(out[i-take:], chunk[len(chunk)-take:])
		i -= take
	}
	return out
}

// emit records e: metrics always, the event record unless capped.
func (s *Sink) emit(e Event) {
	if s == nil {
		return
	}
	s.total++
	if n := int(e.Node) + 1; n > s.nodes {
		s.nodes = n
	}
	if p := int(e.Peer) + 1; p > s.nodes && (e.Kind == MsgSend || e.Kind == MsgRecv) {
		s.nodes = p
	}
	s.observe(&e)
	// total already counts e, so Len() includes the candidate record.
	if s.cfg.MaxEvents > 0 && s.Len() > s.cfg.MaxEvents {
		s.dropped++
		return
	}
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		var c []Event
		if f := len(s.free); f > 0 {
			c = s.free[f-1]
			s.free = s.free[:f-1]
		} else {
			c = make([]Event, 0, chunkSize)
		}
		s.chunks = append(s.chunks, c)
		n++
	}
	s.chunks[n-1] = append(s.chunks[n-1], e)
}

// --- emission helpers (the producer API) -----------------------------------

// msgFlags packs a message's annotation bits.
func msgFlags(m netsim.Message) uint8 {
	var f uint8
	if m.SI {
		f |= FlagSI
	}
	if m.TearOff {
		f |= FlagTearOff
	}
	if m.HasVer {
		f |= FlagHasVer
	}
	if m.Src == m.Dst {
		f |= FlagLocal
	}
	return f
}

// MsgSent implements netsim.Observer: m was injected at m.Src at time now.
func (s *Sink) MsgSent(now event.Time, m netsim.Message, arrive event.Time) {
	_ = arrive
	s.emit(Event{
		Cycle: now, Kind: MsgSend, Node: int32(m.Src), Peer: int32(m.Dst),
		Addr: mem.BlockOf(m.Addr), Txn: m.Txn, Msg: m.Kind, Flags: msgFlags(m),
	})
}

// MsgDelivered implements netsim.Observer: m arrived at m.Dst at time now.
func (s *Sink) MsgDelivered(now event.Time, m netsim.Message) {
	s.emit(Event{
		Cycle: now, Kind: MsgRecv, Node: int32(m.Dst), Peer: int32(m.Src),
		Addr: mem.BlockOf(m.Addr), Txn: m.Txn, Msg: m.Kind, Flags: msgFlags(m),
	})
}

// MsgFault implements netsim.Observer: the fault plan applied action to m.
func (s *Sink) MsgFault(now event.Time, m netsim.Message, action faultinj.Action, delay event.Time) {
	_ = delay
	s.emit(Event{
		Cycle: now, Kind: Fault, Node: int32(m.Src), Peer: int32(m.Dst),
		Addr: mem.BlockOf(m.Addr), Txn: m.Txn, Msg: m.Kind,
		Old: uint8(action), Flags: msgFlags(m),
	})
}

// OnRetryTimeout records a hardened controller's transaction timer firing at
// node: the cache controller re-sending its request (dir == false) or the
// home directory re-sending outstanding invalidations/recalls (dir == true).
func (s *Sink) OnRetryTimeout(now event.Time, node int, b mem.Addr, txn uint64, retries int, dir bool) {
	if retries > 255 {
		retries = 255
	}
	var side uint8
	if dir {
		side = 1
	}
	s.emit(Event{
		Cycle: now, Kind: Timeout, Node: int32(node), Addr: b, Txn: txn,
		Old: uint8(retries), New: side,
	})
}

// OnCacheState records a cache-side state transition at node.
func (s *Sink) OnCacheState(now event.Time, node int, b mem.Addr, txn uint64, old, new cache.State, flags uint8) {
	s.emit(Event{
		Cycle: now, Kind: CacheState, Node: int32(node), Addr: b, Txn: txn,
		Old: uint8(old), New: uint8(new), Flags: flags,
	})
}

// OnDirState records a directory-side state transition at the home node.
func (s *Sink) OnDirState(now event.Time, home int, b mem.Addr, txn uint64, old, new directory.State) {
	s.emit(Event{
		Cycle: now, Kind: DirState, Node: int32(home), Addr: b, Txn: txn,
		Old: uint8(old), New: uint8(new),
	})
}

// OnSelfInval records a self-invalidation at node; fifo marks a forced FIFO
// displacement rather than a sync-point flush.
func (s *Sink) OnSelfInval(now event.Time, node int, b mem.Addr, old cache.State, tearOff, fifo bool) {
	k := SelfInval
	if fifo {
		k = FIFODisplace
	}
	var f uint8 = FlagSI
	if tearOff {
		f |= FlagTearOff
	}
	s.emit(Event{Cycle: now, Kind: k, Node: int32(node), Addr: b, Old: uint8(old), Flags: f})
}

// OnTearOffGrant records the home directory handing requester an untracked
// copy.
func (s *Sink) OnTearOffGrant(now event.Time, home int, b mem.Addr, txn uint64, requester int) {
	s.emit(Event{
		Cycle: now, Kind: TearOffGrant, Node: int32(home), Peer: int32(requester),
		Addr: b, Txn: txn, Flags: FlagTearOff,
	})
}

// OnTxnStart records the home directory opening a transaction for req.
func (s *Sink) OnTxnStart(now event.Time, home int, b mem.Addr, txn uint64, requester int, req netsim.Kind) {
	s.emit(Event{
		Cycle: now, Kind: TxnStart, Node: int32(home), Peer: int32(requester),
		Addr: b, Txn: txn, Msg: req,
	})
}

// OnTxnEnd records the transaction's completion (all acks collected).
func (s *Sink) OnTxnEnd(now event.Time, home int, b mem.Addr, txn uint64, requester int) {
	s.emit(Event{
		Cycle: now, Kind: TxnEnd, Node: int32(home), Peer: int32(requester),
		Addr: b, Txn: txn,
	})
}

// --- filtering and plain-text rendering -------------------------------------

// Filter selects a subset of the event stream. Zero values mean "no
// constraint" except Node and Txn, which use -1/0 respectively as their
// "any" value (NewFilter returns a match-everything filter).
type Filter struct {
	Node  int        // -1 = any
	Block mem.Addr   // 0 = any (block address)
	Txn   uint64     // 0 = any
	From  event.Time // inclusive lower cycle bound
	To    event.Time // inclusive upper cycle bound, 0 = unbounded
	Kinds uint16     // bit per Kind, 0 = all
}

// NewFilter returns a filter matching every event.
func NewFilter() Filter { return Filter{Node: -1} }

// WithKind restricts the filter to kind (cumulative across calls).
func (f Filter) WithKind(k Kind) Filter {
	f.Kinds |= 1 << uint(k)
	return f
}

// Match reports whether e passes the filter.
func (f Filter) Match(e *Event) bool {
	if f.Node >= 0 && int(e.Node) != f.Node && !(int(e.Peer) == f.Node && (e.Kind == MsgSend || e.Kind == MsgRecv)) {
		return false
	}
	if f.Block != 0 && e.Addr != mem.BlockOf(f.Block) {
		return false
	}
	if f.Txn != 0 && e.Txn != f.Txn {
		return false
	}
	if e.Cycle < f.From {
		return false
	}
	if f.To != 0 && e.Cycle > f.To {
		return false
	}
	if f.Kinds != 0 && f.Kinds&(1<<uint(e.Kind)) == 0 {
		return false
	}
	return true
}

// WriteText renders the filtered event stream one line per event, at most
// limit lines (0 = all). It returns the number of events matched (not the
// number printed).
func (s *Sink) WriteText(w io.Writer, f Filter, limit int) (int, error) {
	if s == nil {
		return 0, nil
	}
	matched := 0
	var err error
	s.ForEach(func(e *Event) {
		if err != nil || !f.Match(e) {
			return
		}
		matched++
		if limit > 0 && matched > limit {
			return
		}
		_, err = fmt.Fprintln(w, e.String())
	})
	if err != nil {
		return matched, err
	}
	if limit > 0 && matched > limit {
		_, err = fmt.Fprintf(w, "... %d more events matched (raise -limit to see them)\n", matched-limit)
	}
	return matched, err
}
