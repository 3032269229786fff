// Package netsim models the interconnect of the simulated machine exactly as
// the paper's methodology describes it: a constant-latency point-to-point
// network with no switch contention, but with contention modeled at each
// node's network interface. Injecting a message occupies the sender's NI for
// 3 cycles, plus 8 more if the message carries a cache block.
//
// Because injection is serialized per node and flight time is constant,
// delivery between any ordered pair of nodes is FIFO; the coherence protocol
// in internal/proto relies on that ordering (e.g. a writeback racing an
// invalidation always reaches the home first). When a fault plan
// (internal/faultinj) is installed, messages may additionally be dropped,
// duplicated, or delayed — but deliveries are clamped so the per-pair FIFO
// guarantee still holds; see docs/FAULTS.md.
//
// The package also owns the protocol message taxonomy so that message
// counting — the subject of Table 3 of the paper — lives in one place.
package netsim

import (
	"fmt"

	"dsisim/internal/event"
	"dsisim/internal/faultinj"
	"dsisim/internal/mem"
)

// Kind enumerates every coherence message the protocols exchange.
type Kind int

const (
	// Requests, cache -> home directory.
	GetS    Kind = iota // read miss
	GetX                // write miss
	Upgrade             // write miss while holding a shared copy
	// Directory-initiated coherence actions.
	Inv    // invalidate a shared copy
	Recall // downgrade an exclusive copy to shared (read by another node)
	// Cache responses to coherence actions.
	InvAck     // invalidation acknowledged, no data
	InvAckData // invalidation of an exclusive copy, carries the dirty block
	RecallAck  // downgrade acknowledged, carries the block
	// Directory replies.
	DataS    // shared-readable block
	DataX    // exclusive block
	AckX     // upgrade granted, no data needed
	FinalAck // weak consistency: all invalidations collected for a prior DataX/AckX
	// Cache-initiated, unsolicited.
	WB         // replacement writeback of an exclusive block (data)
	Repl       // replacement hint for a shared copy (no data)
	SInvNotify // self-invalidation of a tracked shared copy (no data)
	SInvWB     // self-invalidation of an exclusive copy (data)
	// Recovery traffic, only present when the protocol runs hardened (under
	// a fault plan; see docs/FAULTS.md). Neither kind counts as invalidation
	// traffic for Table 3: they are retry-protocol overhead, not the
	// coherence messages DSI exists to eliminate.
	Nack     // directory refuses a request (per-block queue overflow); requester backs off and retries
	NackHome // cache's negative acknowledgment: an Inv/Recall found no copy; home treats it as an ack
	NumKinds
)

var kindNames = [NumKinds]string{
	"GetS", "GetX", "Upgrade", "Inv", "Recall", "InvAck", "InvAckData",
	"RecallAck", "DataS", "DataX", "AckX", "FinalAck", "WB", "Repl",
	"SInvNotify", "SInvWB", "Nack", "NackHome",
}

func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind resolves a message-kind name as produced by Kind.String.
func ParseKind(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// HasData reports whether messages of this kind carry a cache block and
// therefore pay the extra 8-cycle injection overhead.
func (k Kind) HasData() bool {
	switch k {
	case InvAckData, RecallAck, DataS, DataX, WB, SInvWB:
		return true
	case GetS, GetX, Upgrade, Inv, InvAck, Recall, AckX, FinalAck, Repl, SInvNotify, Nack, NackHome:
		return false
	default:
		panic("netsim: HasData: unknown message kind")
	}
}

// IsInvalidation reports whether the kind counts as an "invalidation
// message" for Table 3: explicit invalidations, recalls, and their
// acknowledgments — the traffic DSI exists to eliminate.
func (k Kind) IsInvalidation() bool {
	switch k {
	case Inv, InvAck, InvAckData, Recall, RecallAck:
		return true
	case GetS, GetX, Upgrade, DataS, DataX, WB, AckX, FinalAck, Repl, SInvNotify, SInvWB, Nack, NackHome:
		return false
	default:
		panic("netsim: IsInvalidation: unknown message kind")
	}
}

// Droppable reports whether the hardened protocol can recover from losing a
// message of this kind end-to-end. Requests, coherence actions, dataless
// acks, and directory replies are all covered by the timeout/retry machinery
// (the requester or the directory re-drives the transaction, and the
// directory can replay a lost grant). The remaining kinds carry the sole
// copy of information nothing retains — dirty data in InvAckData, RecallAck,
// WB, and SInvWB; the replacement/self-invalidation notices Repl and
// SInvNotify, whose loss would leave the directory tracking a copy that no
// longer exists with no transaction to flush the staleness out. Probabilistic
// fault plans convert drop/dup decisions on non-droppable kinds into bounded
// delays (see internal/faultinj); scripted rules may still force-drop them.
func (k Kind) Droppable() bool {
	switch k {
	case GetS, GetX, Upgrade, Inv, Recall, InvAck, DataS, DataX, AckX, FinalAck, Nack, NackHome:
		return true
	case InvAckData, RecallAck, WB, Repl, SInvNotify, SInvWB:
		return false
	default:
		panic("netsim: Droppable: unknown message kind")
	}
}

// Message is one coherence protocol message. Fields beyond Kind/Src/Dst/Addr
// are used by subsets of the kinds; unused fields stay zero.
type Message struct {
	Kind Kind
	Src  int
	Dst  int
	Addr mem.Addr // block address

	// Txn tags the message with the directory transaction it belongs to: ids
	// are drawn from a deterministic per-run counter at miss issue and echoed
	// through replies, coherence actions, and acks. Unsolicited traffic (WB,
	// Repl, SInvNotify, SInvWB) carries Txn 0. The base protocol never
	// branches on this field; the hardened protocol uses it to deduplicate
	// retransmitted requests and to reject stale acknowledgments.
	Txn uint64

	Data mem.Value // block contents, for kinds with HasData

	// Request annotations.
	Ver    uint8 // version number echoed by the cache (version-number DSI)
	HasVer bool  // the cache had a matching tag and supplied Ver
	// Probe marks a message about an already-consumed (or refused)
	// transaction, which the directory must never treat as a fresh request
	// or a fresh writeback (see proto/robust.go). On a re-sent GetX it is a
	// lost-FinalAck probe: if the transaction is no longer replayable from
	// directory state, the only thing the prober can still be missing is
	// the FinalAck. On a WB it is an ownership give-back whose payload is
	// stale by construction and must never overwrite home memory.
	Probe bool

	// Reply annotations.
	SI      bool       // block is marked for self-invalidation
	TearOff bool       // block granted untracked (tear-off)
	InvWait event.Time // cycles the directory waited on invalidations for this reply
	Pending bool       // weak consistency: a FinalAck will follow this DataX/AckX
}

func (m Message) String() string {
	return fmt.Sprintf("%s %d->%d blk=%#x", m.Kind, m.Src, m.Dst, uint64(m.Addr))
}

// Injection and delivery constants from the paper's methodology section.
const (
	InjectCycles = 3 // NI occupancy per message
	BlockCycles  = 8 // additional NI occupancy when carrying a block
	// LocalDelay is the delivery time for a node messaging itself (cache to
	// its own directory). Such messages never enter the network and are not
	// counted as network traffic.
	LocalDelay = 1
)

// Counts aggregates message traffic by kind.
type Counts struct {
	ByKind [NumKinds]int64
}

// Total returns the number of network messages of all kinds.
func (c Counts) Total() int64 {
	var t int64
	for _, v := range c.ByKind {
		t += v
	}
	return t
}

// Invalidation returns the number of invalidation-class messages.
func (c Counts) Invalidation() int64 {
	var t int64
	for k, v := range c.ByKind {
		if Kind(k).IsInvalidation() {
			t += v
		}
	}
	return t
}

// Sub returns c - o, kind by kind.
func (c Counts) Sub(o Counts) Counts {
	var out Counts
	for i := range c.ByKind {
		out.ByKind[i] = c.ByKind[i] - o.ByKind[i]
	}
	return out
}

// Handler consumes a delivered message at its destination node. The message
// lives in the network's pooled delivery record and dies with it: it is valid
// only for the call, so a handler that keeps any of it copies what it keeps.
type Handler func(*Message)

// Observer receives a callback per message injection and delivery. It exists
// so the observability layer (internal/obs) can watch traffic without this
// package importing it; a nil observer costs one predictable branch per
// send/delivery and zero allocations. Messages reach it by value: a pointer
// handed to an interface method escapes, which would move every sender's
// message to the heap.
type Observer interface {
	// MsgSent fires inside Send, after the arrival time is computed. For a
	// duplicated message it fires once per delivered copy; for a dropped
	// message it does not fire at all (MsgFault reports the loss).
	MsgSent(now event.Time, m Message, arrive event.Time)
	// MsgDelivered fires at delivery time, before the destination handler.
	MsgDelivered(now event.Time, m Message)
	// MsgFault fires when the fault plan drops, duplicates, or delays m.
	// delay is the extra delivery delay (for Delay) or the spacing of the
	// second copy (for Duplicate); zero for Drop.
	MsgFault(now event.Time, m Message, action faultinj.Action, delay event.Time)
}

// Config parameterizes a Network.
type Config struct {
	Nodes   int
	Latency event.Time // constant flight time, 100 or 1000 in the paper

	// Faults, when non-nil, is consulted on every non-local Send. With a
	// plan installed the network additionally clamps every delivery to the
	// latest delivery already scheduled for its ordered (src, dst) pair, so
	// jitter and duplication never violate the per-pair FIFO guarantee the
	// protocol depends on. nil costs one predictable branch per send.
	Faults *faultinj.Plan
}

// Network is the interconnect instance. It is driven entirely by the event
// queue; Send may only be called from inside events.
type Network struct {
	q        *event.Queue
	latency  event.Time
	nis      []event.Server
	handlers []Handler
	counts   Counts
	inflight int
	obs      Observer

	// faults and pairLast exist only when a fault plan is installed:
	// pairLast[src*nodes+dst] is the latest delivery time scheduled for that
	// ordered pair, the floor for the pair's next delivery.
	faults   *faultinj.Plan
	pairLast []event.Time

	// free is the delivery-record free list. A simulation is single-threaded
	// (everything runs inside the event loop), so a plain stack suffices; in
	// steady state every Send reuses a record and allocates nothing.
	free []*delivery
}

// delivery is a pooled in-flight message record: the typed event argument
// that replaces a per-send closure. Send copies each message into its
// record once; the handler then gets a pointer into the record, valid until
// the record is recycled after the handler returns.
type delivery struct {
	net *Network
	msg Message
}

// deliver is the static delivery action shared by every in-flight message.
// It hands the record's message to its destination's handler, then
// recycles the record.
//
//dsi:hotpath
func deliver(arg any) {
	d := arg.(*delivery)
	n := d.net
	n.inflight--
	if n.obs != nil {
		n.obs.MsgDelivered(n.q.Now(), d.msg)
	}
	n.handlers[d.msg.Dst](&d.msg)
	n.free = append(n.free, d)
}

// getDelivery pops a pooled record or allocates the pool's next one.
//
//dsi:hotpath
func (n *Network) getDelivery() *delivery {
	if len(n.free) > 0 {
		d := n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
		return d
	}
	return &delivery{net: n}
}

// New builds a network. Handlers start nil; the machine must register one
// per node before any traffic flows.
func New(q *event.Queue, cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic("netsim: need at least one node")
	}
	if cfg.Latency < 0 {
		panic("netsim: negative latency")
	}
	n := &Network{
		q:        q,
		latency:  cfg.Latency,
		nis:      make([]event.Server, cfg.Nodes),
		handlers: make([]Handler, cfg.Nodes),
	}
	if cfg.Faults != nil {
		n.faults = cfg.Faults
		n.pairLast = make([]event.Time, cfg.Nodes*cfg.Nodes)
	}
	return n
}

// Reset returns the network to its initial state for machine reuse: idle
// interfaces, zeroed counters, no traffic in flight. Handlers and the
// delivery free list are kept; the latency and fault plan are replaced from
// cfg (whose node count must match the network's). Any deliveries that were
// still in flight are abandoned (their records are simply not recycled).
func (n *Network) Reset(cfg Config) {
	if cfg.Nodes != len(n.nis) {
		panic("netsim: Reset with a different node count")
	}
	if cfg.Latency < 0 {
		panic("netsim: negative latency")
	}
	n.latency = cfg.Latency
	for i := range n.nis {
		n.nis[i].Reset()
	}
	n.counts = Counts{}
	n.inflight = 0
	n.obs = nil
	n.faults = cfg.Faults
	if cfg.Faults != nil {
		if n.pairLast == nil {
			n.pairLast = make([]event.Time, cfg.Nodes*cfg.Nodes)
		} else {
			clear(n.pairLast)
		}
	}
}

// SetHandler registers the delivery callback for node's incoming messages.
func (n *Network) SetHandler(node int, h Handler) { n.handlers[node] = h }

// SetObserver installs (or, with nil, removes) the traffic observer.
func (n *Network) SetObserver(o Observer) { n.obs = o }

// Nodes returns the node count.
func (n *Network) Nodes() int { return len(n.nis) }

// Latency returns the configured flight time.
func (n *Network) Latency() event.Time { return n.latency }

// InFlight returns the number of messages sent but not yet delivered.
func (n *Network) InFlight() int { return n.inflight }

// Counts returns a snapshot of the traffic counters.
func (n *Network) Counts() Counts { return n.counts }

// InjectionTime returns the NI occupancy for a message of kind k.
func InjectionTime(k Kind) event.Time {
	t := event.Time(InjectCycles)
	if k.HasData() {
		t += BlockCycles
	}
	return t
}

// Send injects *m at its source NI. Local messages (Src == Dst) bypass the
// network: they are delivered after LocalDelay, are not counted, and are
// exempt from fault injection. The return value is the time the message will
// be delivered; if the fault plan drops the message it is the time delivery
// would have happened, useful only as a scheduling hint. Send copies the
// message into its delivery record and keeps no reference to m, so a sender
// may build m on its stack and reuse it at once.
//
//dsi:hotpath
func (n *Network) Send(m *Message) event.Time {
	if m.Src < 0 || m.Src >= len(n.nis) || m.Dst < 0 || m.Dst >= len(n.nis) {
		panic(fmt.Sprintf("netsim: bad endpoints in %v", *m))
	}
	if n.handlers[m.Dst] == nil {
		panic(fmt.Sprintf("netsim: no handler at node %d for %v", m.Dst, *m))
	}
	now := n.q.Now()
	if m.Src == m.Dst {
		arrive := now + LocalDelay
		n.sched(m, now, arrive)
		return arrive
	}
	_, injected := n.nis[m.Src].Admit(now, InjectionTime(m.Kind))
	arrive := injected + n.latency
	n.counts.ByKind[m.Kind]++
	if n.faults == nil {
		n.sched(m, now, arrive)
		return arrive
	}
	return n.faultySend(m, now, arrive)
}

// sched schedules delivery of m at arrive, on a pooled record of its own,
// and notifies the observer.
//
//dsi:hotpath
func (n *Network) sched(m *Message, now, arrive event.Time) {
	n.inflight++
	if n.obs != nil {
		n.obs.MsgSent(now, *m, arrive)
	}
	d := n.getDelivery()
	d.msg = *m
	n.q.AtCall(arrive, deliver, d)
}

// faultySend consults the fault plan for a non-local message and executes
// the decision. Every surviving delivery (including duplicate copies) passes
// through clampFIFO, so faults perturb timing but never per-pair ordering.
//
//dsi:hotpath
func (n *Network) faultySend(m *Message, now, arrive event.Time) event.Time {
	dec := n.faults.Decide(int(m.Kind), m.Src, m.Dst, m.Kind.Droppable())
	switch dec.Action {
	case faultinj.Deliver:
		arrive = n.clampFIFO(m, arrive)
		n.sched(m, now, arrive)
		return arrive
	case faultinj.Drop:
		if n.obs != nil {
			n.obs.MsgFault(now, *m, faultinj.Drop, 0)
		}
		return arrive
	case faultinj.Duplicate:
		arrive = n.clampFIFO(m, arrive)
		copyAt := n.clampFIFO(m, arrive+dec.Delay)
		if n.obs != nil {
			n.obs.MsgFault(now, *m, faultinj.Duplicate, copyAt-arrive)
		}
		n.sched(m, now, arrive)
		// The copy materializes inside the network but is real traffic on
		// the receiving side; count it.
		n.counts.ByKind[m.Kind]++
		n.sched(m, now, copyAt)
		return arrive
	case faultinj.Delay:
		arrive = n.clampFIFO(m, arrive+dec.Delay)
		if n.obs != nil {
			n.obs.MsgFault(now, *m, faultinj.Delay, dec.Delay)
		}
		n.sched(m, now, arrive)
		return arrive
	default:
		panic("netsim: invalid fault action")
	}
}

// clampFIFO floors arrive to the latest delivery already scheduled for m's
// ordered (src, dst) pair and records the result as the pair's new floor.
// Ties are broken by event-queue insertion order, which is send order, so
// per-pair FIFO delivery survives any fault plan.
//
//dsi:hotpath
func (n *Network) clampFIFO(m *Message, arrive event.Time) event.Time {
	idx := m.Src*len(n.nis) + m.Dst
	if last := n.pairLast[idx]; arrive < last {
		arrive = last
	}
	n.pairLast[idx] = arrive
	return arrive
}

// FaultStats returns the fault plan's decision counters (zero when no plan
// is installed).
func (n *Network) FaultStats() faultinj.Stats {
	if n.faults == nil {
		return faultinj.Stats{}
	}
	return n.faults.Stats()
}

// NIFree returns the earliest time node's NI can begin a new injection. The
// self-invalidation machinery uses it to model the processor stalling until
// its notification messages have all been injected.
func (n *Network) NIFree(node int) event.Time { return n.nis[node].FreeAt() }
