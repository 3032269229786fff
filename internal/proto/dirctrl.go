package proto

import (
	"dsisim/internal/blockmap"
	"dsisim/internal/core"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
)

// txn is one in-progress directory transaction for a block: a request that
// required invalidating or recalling outstanding copies before (SC) or
// after (WC) replying. While a txn is live the block is busy and later
// requests queue behind it.
type txn struct {
	req     netsim.Message
	isRead  bool
	upgrade bool // reply with AckX (requester keeps its data)

	si      bool
	tearOff bool
	ver     uint8
	hasVer  bool

	// pending is the set of nodes whose acknowledgment is still missing;
	// the transaction completes when it empties. action is the coherence
	// action (Inv or Recall) the hardened protocol re-sends to pending
	// nodes on timeout.
	pending  directory.NodeSet
	action   netsim.Kind
	ownerWas int // node whose exclusive copy is being recalled/invalidated, -1 if none
	prev     directory.State

	// Hardened protocol (robust.go): retransmission count and timer
	// generation; see mshr in cachectrl.go for the field semantics.
	retries int
	tgen    uint32

	// ownerRetains: the recalled owner answered with a RecallAck, so it
	// still holds a downgraded shared copy. If its writeback raced the
	// recall instead, the owner has nothing left and must not be re-added
	// to the sharer set.
	ownerRetains bool

	// procDone is when directory processing finished and invalidations
	// went out; the reply's InvWait measures from here.
	procDone event.Time

	// wcPending: the data reply already went out (weak consistency); on
	// completion send FinalAck instead.
	wcPending bool

	// requesterDropped: the requester wrote back / replaced the block
	// before the transaction completed (possible under WC, where the data
	// is granted before the acks arrive).
	requesterDropped bool

	// migratoryRead: a read request served with an exclusive grant because
	// the block is in migratory mode; completion checks whether the
	// prediction held (the invalidated owner had actually written).
	migratoryRead bool
}

// DirStats counts directory-level events.
type DirStats struct {
	Requests      int64 // GetS+GetX+Upgrade processed
	Invalidates   int64 // Inv messages sent
	Recalls       int64 // Recall messages sent
	SIGrantsRead  int64 // shared grants marked for self-invalidation
	SIGrantsWrite int64
	TearOffGrants int64
	// MigratoryGrants counts read requests answered with exclusive grants
	// by the migratory-sharing optimization.
	MigratoryGrants int64
	// PointerOverflows counts sharers evicted to free a directory pointer
	// (limited-pointer directories only).
	PointerOverflows int64
	Queued           int64 // requests that waited behind a busy block

	// Hardened protocol only (zero when Config.Retry is nil).
	Timeouts    int64 // retry timers that fired for a live transaction
	RetriesSent int64 // Inv/Recall messages re-sent to unacknowledged nodes
	NacksSent   int64 // requests refused because the block's queue was full
	Replays     int64 // grants and FinalAcks re-sent from directory state for lost replies
	DupRequests int64 // retransmitted requests deduplicated and dropped
	StrayAcks   int64 // duplicate/stale acknowledgments tolerated
}

// homeBlock is one block's state at its home, in one record: the directory
// entry, the live transaction, the home memory image and the request queue,
// as the paper's Dir_nNB keeps a block's directory entry with its memory. A
// request reaches all of it with one block-table lookup.
type homeBlock struct {
	e directory.Entry
	// t is the live transaction; nil when the block is not busy.
	t *txn
	// data is the block's home memory image; zero until first written.
	data mem.Value
	// qHead/qTail link the requests queued behind a busy block through
	// homeTables.qNodes, stored as index+1 so the zeroed record means "empty
	// queue". qLen mirrors the list length for the QueueLimit check and
	// diagnostics.
	qHead, qTail int32
	qLen         int32
}

// queueNode is one pooled pending-request record; next is index+1 into
// homeTables.qNodes (0 terminates the list / the free list).
type queueNode struct {
	m    netsim.Message
	next int32
}

// homeTables are the home side's per-block state for a whole machine: one
// record per block, and the node arena behind the request queues. Each
// block has exactly one home, so one set of tables, owned by the Env,
// serves every DirCtrl and holds nothing twice: a machine's home side spans
// the address space once, not once per node.
type homeTables struct {
	// blocks holds every touched block's record, created on first touch in
	// first-touch order, which the audit's home-by-home listing follows.
	blocks blockmap.Map[homeBlock]
	// qNodes backs every block's pending-request list; qFree heads the free
	// list (index+1, 0 = empty).
	qNodes []queueNode
	qFree  int32
}

// reset empties the tables, keeping their allocations.
func (h *homeTables) reset() {
	h.blocks.Reset()
	h.qNodes = h.qNodes[:0]
	h.qFree = 0
}

// DirCtrl is the directory controller of one home node. Its per-block
// state lives in the machine's shared home tables (Env); it serves only
// the blocks homed at its node.
type DirCtrl struct {
	env    *Env
	h      *homeTables // &env.home
	node   int
	cfg    Config
	server event.Server

	// busyCount tracks this home's blocks with a live transaction for
	// BusyBlocks.
	busyCount int

	// calls is the free list of pooled admit→process dispatch records; see
	// dirCall. Single-threaded per machine, so a plain stack suffices.
	calls []*dirCall
	// txns is the free list of completed transaction records.
	txns []*txn
	// rtFree is the free list of pooled retry-timer records (robust.go).
	rtFree []*dirRetryCall

	stats DirStats
}

// Reset returns the controller to its initial state under a (possibly
// different) protocol configuration, keeping the pooled record free lists.
// The home tables it shares are emptied by Env.Reset. Machine reuse calls
// this between runs.
func (dc *DirCtrl) Reset(cfg Config) {
	if cfg.SharerLimit == 1 {
		panic("proto: SharerLimit must be 0 (full map) or >= 2")
	}
	dc.cfg = cfg
	dc.server.Reset()
	dc.busyCount = 0
	dc.stats = DirStats{}
}

// block returns b's home record, creating it on first touch with an Idle
// entry that has had no writer yet.
//
//dsi:hotpath
func (dc *DirCtrl) block(b mem.Addr) *homeBlock {
	idx := mem.BlockIndex(b)
	if hb := dc.h.blocks.Get(idx); hb != nil {
		return hb
	}
	hb := dc.h.blocks.Ensure(idx)
	hb.e.LastOwner = -1
	return hb
}

// entry returns the directory entry of home record hb. Handlers reach the
// entry only through it: the protomodel extractor keys on this method to
// know which entry is the subject's (docs/ANALYSIS.md).
//
//dsi:hotpath
func (dc *DirCtrl) entry(hb *homeBlock) *directory.Entry {
	return &hb.e
}

// pushQueue appends a copy of *m to hb's pending-request list.
//
//dsi:hotpath
func (dc *DirCtrl) pushQueue(hb *homeBlock, m *netsim.Message) {
	h := dc.h
	var id int32
	if h.qFree != 0 {
		id = h.qFree - 1
		h.qFree = h.qNodes[id].next
	} else {
		h.qNodes = append(h.qNodes, queueNode{})
		id = int32(len(h.qNodes) - 1)
	}
	n := &h.qNodes[id]
	n.m = *m
	n.next = 0
	if hb.qTail != 0 {
		h.qNodes[hb.qTail-1].next = id + 1
	} else {
		hb.qHead = id + 1
	}
	hb.qTail = id + 1
	hb.qLen++
}

// popQueue removes the head of hb's pending-request list and returns its
// message, which stays in the freed node only until the next pushQueue.
//
//dsi:hotpath
func (dc *DirCtrl) popQueue(hb *homeBlock) (*netsim.Message, bool) {
	if hb.qHead == 0 {
		return nil, false
	}
	h := dc.h
	id := hb.qHead - 1
	n := &h.qNodes[id]
	hb.qHead = n.next
	if hb.qHead == 0 {
		hb.qTail = 0
	}
	hb.qLen--
	n.next = h.qFree
	h.qFree = id + 1
	return &n.m, true
}

// dirCall is a pooled record carrying a copy of one admitted request across
// the directory-occupancy delay — the typed event argument that replaces the
// per-request closure in admit.
type dirCall struct {
	dc *DirCtrl
	m  netsim.Message
}

// processCall is the static action for admitted requests. The request is
// processed in place, so the record is recycled only afterwards; a queued
// request that processing re-admits takes a record of its own.
//
//dsi:hotpath
func processCall(arg any) {
	c := arg.(*dirCall)
	dc := c.dc
	dc.process(&c.m)
	dc.calls = append(dc.calls, c)
}

// NewDirCtrl builds the directory controller for home node.
func NewDirCtrl(env *Env, node int, cfg Config) *DirCtrl {
	if cfg.SharerLimit == 1 {
		panic("proto: SharerLimit must be 0 (full map) or >= 2")
	}
	return &DirCtrl{env: env, h: &env.home, node: node, cfg: cfg}
}

// Node returns the home node the controller serves.
func (dc *DirCtrl) Node() int { return dc.node }

// Peek returns the directory entry of a's block, if the block was ever
// touched, without creating one. The machine's home records are shared, so
// any home's controller sees every block.
func (dc *DirCtrl) Peek(a mem.Addr) (*directory.Entry, bool) {
	if hb := dc.h.blocks.Get(mem.BlockIndex(a)); hb != nil {
		return &hb.e, true
	}
	return nil, false
}

// HomeValue returns the home memory image of a's block: zero if the block
// was never written back.
func (dc *DirCtrl) HomeValue(a mem.Addr) mem.Value {
	if hb := dc.h.blocks.Get(mem.BlockIndex(a)); hb != nil {
		return hb.data
	}
	return mem.Value{}
}

// Entries returns the number of blocks with a home record, every home's.
func (dc *DirCtrl) Entries() int { return dc.h.blocks.Len() }

// ForEachEntry calls fn with every home record's block, directory entry and
// home memory image, every home's, in first-touch order (deterministic: it
// follows the simulation's own event order). The pointers are valid only
// for the call.
func (dc *DirCtrl) ForEachEntry(fn func(b mem.Addr, e *directory.Entry, data *mem.Value)) {
	dc.h.blocks.ForEach(func(idx uint64, hb *homeBlock) {
		fn(mem.Addr(idx)<<mem.BlockShift, &hb.e, &hb.data)
	})
}

// HomeOf returns the home node of a's block: the node whose controller
// serves it.
func (dc *DirCtrl) HomeOf(a mem.Addr) int { return dc.env.Layout.Home(a) }

// Stats returns a snapshot of the counters.
func (dc *DirCtrl) Stats() DirStats { return dc.stats }

// BusyBlocks returns the number of blocks with live transactions, for
// quiesce detection.
func (dc *DirCtrl) BusyBlocks() int { return dc.busyCount }

// send stamps m as this home's and injects it. The network copies it, so m
// may live on the caller's stack.
//
//dsi:hotpath
func (dc *DirCtrl) send(m *netsim.Message) {
	m.Src = dc.node
	dc.env.Net.Send(m)
}

// newTxn takes a transaction record from the free list (or allocates one)
// and initializes it to *init.
func (dc *DirCtrl) newTxn(init *txn) *txn {
	var t *txn
	if n := len(dc.txns); n > 0 {
		t = dc.txns[n-1]
		dc.txns = dc.txns[:n-1]
	} else {
		t = new(txn)
	}
	*t = *init
	return t
}

// openTxn registers t as block b's live transaction: it records the
// coherence action to re-send on timeout, marks the block busy, emits the
// transaction-start event, and — hardened only — arms the retry timer.
// Callers send the initial action messages themselves.
func (dc *DirCtrl) openTxn(hb *homeBlock, b mem.Addr, t *txn, action netsim.Kind) {
	t.action = action
	hb.t = t
	dc.busyCount++
	if sk := dc.env.Sink; sk != nil {
		sk.OnTxnStart(dc.env.Q.Now(), dc.node, b, t.req.Txn, t.req.Src, t.req.Kind)
	}
	if dc.cfg.Retry != nil {
		dc.armTxnTimer(b, t)
	}
}

// Handle dispatches one incoming message. It is the node's network handler
// for directory-bound kinds; m is valid only for the call (see
// netsim.Handler), so a request that must wait is copied (admit, pushQueue,
// txn.req).
//
//dsi:hotpath
func (dc *DirCtrl) Handle(m *netsim.Message) {
	switch m.Kind {
	case netsim.GetS, netsim.GetX, netsim.Upgrade:
		dc.admit(m)
	case netsim.InvAck:
		dc.onAck(m, false, false)
	case netsim.InvAckData:
		dc.onAck(m, true, false)
	case netsim.RecallAck:
		dc.onAck(m, true, true)
	case netsim.NackHome:
		// "No copy here": a re-sent Inv/Recall found the copy already gone.
		// Consumed like a dataless ack — the real data or drop notice is
		// FIFO-ordered ahead of it.
		dc.onAck(m, false, false)
	case netsim.WB:
		dc.onWriteback(m, core.CauseReplace)
	case netsim.SInvWB:
		dc.onWriteback(m, core.CauseSelfInv)
	case netsim.Repl:
		dc.onSharedDrop(m, core.CauseReplace)
	case netsim.SInvNotify:
		dc.onSharedDrop(m, core.CauseSelfInv)
	default:
		// The fabric routes grants, probes, and recall/invalidate traffic to
		// caches; only requests, acks, and drop notices target the home.
		//dsi:unreachable not-routed — cache-bound kinds never reach the home
		dc.env.fail("dir %d: unexpected message %v", dc.node, *m)
	}
}

// admit runs a request through the 10-cycle directory occupancy, then
// processes it (or queues it behind a busy block).
//
//dsi:hotpath
func (dc *DirCtrl) admit(m *netsim.Message) {
	_, done := dc.server.Admit(dc.env.Q.Now(), DirOccupancy)
	var c *dirCall
	if n := len(dc.calls); n > 0 {
		c = dc.calls[n-1]
		dc.calls = dc.calls[:n-1]
	} else {
		c = &dirCall{dc: dc}
	}
	c.m = *m
	dc.env.Q.AtCall(done, processCall, c)
}

//dsi:hotpath
func (dc *DirCtrl) process(m *netsim.Message) {
	b := mem.BlockOf(m.Addr)
	hb := dc.block(b)
	if t := hb.t; t != nil {
		if dc.cfg.Retry != nil {
			if dc.isDuplicate(t, hb, m) {
				dc.stats.DupRequests++
				return
			}
			if lim := dc.cfg.Retry.QueueLimit; lim > 0 && int(hb.qLen) >= lim {
				dc.stats.NacksSent++
				dc.send(&netsim.Message{Kind: netsim.Nack, Dst: m.Src, Addr: b, Txn: m.Txn})
				return
			}
		}
		dc.stats.Queued++
		dc.pushQueue(hb, m)
		return
	}
	if dc.cfg.Retry != nil && dc.replayed(hb, b, m) {
		return
	}
	if dc.cfg.Retry != nil && m.Probe {
		// A FinalAck probe for a transaction this directory completed and
		// whose state it has since moved past (replayed above handles the
		// still-recorded case). The prober consumed its grant long ago, so
		// the only thing it can still be missing is the FinalAck: re-send
		// that and leave the directory state alone. Serving the probe as a
		// fresh request would recall the real owner and record an exclusive
		// grant the prober ignores as a stray, leaving the directory and
		// caches disagreeing at quiesce.
		dc.stats.Replays++
		dc.send(&netsim.Message{Kind: netsim.FinalAck, Dst: m.Src, Addr: b, Txn: m.Txn})
		return
	}
	dc.stats.Requests++
	switch m.Kind {
	case netsim.GetS:
		dc.processRead(m, hb)
	case netsim.GetX, netsim.Upgrade:
		dc.processWrite(m, hb)
	default:
		dc.env.fail("dir %d: non-request kind %v reached process", dc.node, *m)
	}
	// Requests served immediately (no transaction) must still release any
	// requests that queued behind the block while it was busy.
	if hb.t == nil {
		dc.dequeue(hb)
	}
}

func (dc *DirCtrl) processRead(m *netsim.Message, hb *homeBlock) {
	b := mem.BlockOf(m.Addr)
	e := dc.entry(hb)
	pol := dc.cfg.Policy
	if pol.Migratory && e.Migratory && !e.State.IsShared() {
		dc.processMigratoryRead(m, hb, e)
		return
	}
	if pol.Migratory {
		e.ReadersSinceWrite++
		if e.ReadersSinceWrite >= 2 {
			// Two readers between writes: not migratory after all.
			e.Migratory = false
		}
	}
	r := core.Request{Node: m.Src, Home: dc.node, Ver: m.Ver, HasVer: m.HasVer}
	si := pol.MarkRead(e, r)
	tearOff := si && (pol.TearOff || pol.SCTearOff)
	ver, hasVer := pol.Identifier.GrantVersion(e)
	if si {
		dc.stats.SIGrantsRead++
	}
	if tearOff {
		dc.stats.TearOffGrants++
		e.NoteTearOffGrant()
		if sk := dc.env.Sink; sk != nil {
			sk.OnTearOffGrant(dc.env.Q.Now(), dc.node, b, m.Txn, m.Src)
		}
	}

	if e.State == directory.Exclusive {
		// Recall the owner's copy; reply once the data returns.
		t := dc.newTxn(&txn{
			req: *m, isRead: true,
			si: si, tearOff: tearOff, ver: ver, hasVer: hasVer,
			pending: directory.NodeSet(0).Add(e.Owner), ownerWas: e.Owner, prev: e.State,
			procDone: dc.env.Q.Now(),
		})
		dc.stats.Recalls++
		dc.openTxn(hb, b, t, netsim.Recall)
		dc.send(&netsim.Message{Kind: netsim.Recall, Dst: e.Owner, Addr: b, Txn: m.Txn})
		return
	}

	// Data is at home: reply immediately — unless a limited-pointer
	// directory must first evict a sharer to free a pointer. The eviction
	// is a full transaction (grant only after the ack): handing out the
	// copy while the victim still holds a valid untracked one would let a
	// subsequent write miss it, breaking coherence.
	if e.State.IsShared() || e.State.IsIdle() {
		prev := e.State
		if !tearOff {
			if e.Sharers.Has(m.Src) {
				dc.env.fail("dir %d: GetS from existing sharer %d for %#x (state %v)", dc.node, m.Src, uint64(b), e.State)
			}
			if limit := dc.cfg.SharerLimit; limit > 0 && e.Sharers.Count() >= limit {
				victim := -1
				e.Sharers.ForEach(func(n int) {
					if victim < 0 && n != m.Src {
						victim = n
					}
				})
				e.Sharers = e.Sharers.Remove(victim)
				dc.stats.PointerOverflows++
				dc.stats.Invalidates++
				t := dc.newTxn(&txn{
					req: *m, isRead: true,
					si: si, tearOff: false, ver: ver, hasVer: hasVer,
					pending: directory.NodeSet(0).Add(victim), ownerWas: -1, prev: e.State,
					procDone: dc.env.Q.Now(),
				})
				dc.openTxn(hb, b, t, netsim.Inv)
				dc.send(&netsim.Message{Kind: netsim.Inv, Dst: victim, Addr: b, Txn: m.Txn})
				return
			}
			e.Sharers = e.Sharers.Add(m.Src)
			pol.Identifier.SetShared(e, si)
		}
		if sk := dc.env.Sink; sk != nil && e.State != prev {
			sk.OnDirState(dc.env.Q.Now(), dc.node, b, m.Txn, prev, e.State)
		}
		dc.send(&netsim.Message{
			Kind: netsim.DataS, Dst: m.Src, Addr: b, Txn: m.Txn,
			Data: hb.data, SI: si, TearOff: tearOff, Ver: ver, HasVer: hasVer,
		})
		return
	}
	dc.env.fail("dir %d: GetS in state %v", dc.node, e.State)
}

// processMigratoryRead answers a read for a block in migratory mode with an
// exclusive grant: the previous owner is invalidated (not downgraded) and
// the reader becomes the owner, saving its anticipated upgrade. If the
// returning data shows the previous owner never actually wrote, the block
// is demoted out of migratory mode.
func (dc *DirCtrl) processMigratoryRead(m *netsim.Message, hb *homeBlock, e *directory.Entry) {
	b := mem.BlockOf(m.Addr)
	pol := dc.cfg.Policy
	dc.stats.MigratoryGrants++
	r := core.Request{Node: m.Src, Home: dc.node, Ver: m.Ver, HasVer: m.HasVer}
	si := pol.MarkWrite(e, r)
	ver, hasVer := pol.Identifier.GrantVersion(e)
	e.ClearTearOff()
	e.ReadersSinceWrite = 1 // this reader
	if e.State == directory.Exclusive {
		t := dc.newTxn(&txn{
			req: *m, si: si, ver: ver, hasVer: hasVer,
			pending: directory.NodeSet(0).Add(e.Owner), ownerWas: e.Owner, prev: e.State,
			procDone:      dc.env.Q.Now(),
			migratoryRead: true,
		})
		dc.stats.Invalidates++
		dc.openTxn(hb, b, t, netsim.Inv)
		dc.send(&netsim.Message{Kind: netsim.Inv, Dst: e.Owner, Addr: b, Txn: m.Txn})
		return
	}
	// Idle flavors: grant immediately.
	prev := e.State
	e.State = directory.Exclusive
	e.Owner = m.Src
	e.LastOwner = m.Src
	if sk := dc.env.Sink; sk != nil && e.State != prev {
		sk.OnDirState(dc.env.Q.Now(), dc.node, b, m.Txn, prev, e.State)
	}
	dc.sendGrant(hb, m.Src, b, false, si, ver, hasVer, 0, false, m.Txn)
}

func (dc *DirCtrl) processWrite(m *netsim.Message, hb *homeBlock) {
	b := mem.BlockOf(m.Addr)
	e := dc.entry(hb)
	pol := dc.cfg.Policy
	wasSharer := e.State.IsShared() && e.Sharers.Has(m.Src)
	others := e.Sharers.Remove(m.Src)
	if pol.Migratory {
		switch {
		case e.State == directory.Exclusive && e.Owner != m.Src && e.ReadersSinceWrite <= 1:
			// Write-after-write by a different processor with at most one
			// intervening reader: the migratory pattern.
			e.Migratory = true
		case wasSharer && e.LastOwner >= 0 && e.LastOwner != m.Src &&
			e.ReadersSinceWrite == 1 &&
			(others.Empty() || others.Only(e.LastOwner)):
			// Read-then-write by the single reader since another
			// processor's write (the previous writer may still hold its
			// downgraded copy): the same pattern seen from its read side.
			e.Migratory = true
		case !others.Empty():
			e.Migratory = false
		}
		e.ReadersSinceWrite = 0
	}
	r := core.Request{
		Node: m.Src, Home: dc.node, Ver: m.Ver, HasVer: m.HasVer,
		WasSharer: wasSharer, OtherSharers: !others.Empty(),
	}
	si := pol.MarkWrite(e, r)
	ver, hasVer := pol.Identifier.GrantVersion(e)
	if si {
		dc.stats.SIGrantsWrite++
	}
	e.ClearTearOff()
	upgrade := m.Kind == netsim.Upgrade && wasSharer

	switch {
	case e.State == directory.Exclusive:
		if e.Owner == m.Src {
			dc.env.fail("dir %d: GetX from current owner %d for %#x", dc.node, m.Src, uint64(b))
		}
		t := dc.newTxn(&txn{
			req: *m, si: si, ver: ver, hasVer: hasVer,
			pending: directory.NodeSet(0).Add(e.Owner), ownerWas: e.Owner, prev: e.State,
			procDone: dc.env.Q.Now(),
		})
		dc.stats.Invalidates++
		dc.openTxn(hb, b, t, netsim.Inv)
		dc.send(&netsim.Message{Kind: netsim.Inv, Dst: e.Owner, Addr: b, Txn: m.Txn})

	case e.State.IsShared() && !others.Empty():
		t := dc.newTxn(&txn{
			req: *m, upgrade: upgrade, si: si, ver: ver, hasVer: hasVer,
			pending: others, ownerWas: -1, prev: e.State,
			procDone: dc.env.Q.Now(),
		})
		dc.openTxn(hb, b, t, netsim.Inv)
		e.Sharers = 0
		others.ForEach(func(n int) {
			dc.stats.Invalidates++
			dc.send(&netsim.Message{Kind: netsim.Inv, Dst: n, Addr: b, Txn: m.Txn})
		})
		if dc.cfg.Consistency == WC {
			// Grant in parallel with invalidation; FinalAck follows.
			t.wcPending = true
			prev := e.State
			e.State = directory.Exclusive
			e.Owner = m.Src
			e.LastOwner = m.Src
			if sk := dc.env.Sink; sk != nil {
				sk.OnDirState(dc.env.Q.Now(), dc.node, b, m.Txn, prev, e.State)
			}
			dc.reply(t, hb, true)
		}

	default:
		// Idle flavors, or the requester is the lone sharer: grant now.
		prev := e.State
		e.Sharers = 0
		e.State = directory.Exclusive
		e.Owner = m.Src
		e.LastOwner = m.Src
		if sk := dc.env.Sink; sk != nil && e.State != prev {
			sk.OnDirState(dc.env.Q.Now(), dc.node, b, m.Txn, prev, e.State)
		}
		dc.sendGrant(hb, m.Src, b, upgrade, si, ver, hasVer, 0, false, m.Txn)
	}
}

// sendGrant emits the exclusive grant (DataX, or AckX for an upgrade whose
// copy is still valid at the requester).
func (dc *DirCtrl) sendGrant(hb *homeBlock, dst int, b mem.Addr, upgrade, si bool, ver uint8, hasVer bool, invWait event.Time, pending bool, txnID uint64) {
	kind := netsim.DataX
	if upgrade {
		// AckX moves no data on the simulated wire (injection time stays 3
		// cycles); the Data field is simulator bookkeeping so the upgraded
		// copy can be reconstructed even if it was displaced in flight — a
		// tracked shared copy always equals home memory.
		kind = netsim.AckX
	}
	dc.send(&netsim.Message{
		Kind: kind, Dst: dst, Addr: b, Txn: txnID, Data: hb.data,
		SI: si, Ver: ver, HasVer: hasVer, InvWait: invWait, Pending: pending,
	})
}

// reply finishes a transaction's grant. For reads it sends DataS; for
// writes it sends the exclusive grant (used both at completion under SC and
// early under WC).
func (dc *DirCtrl) reply(t *txn, hb *homeBlock, early bool) {
	b := mem.BlockOf(t.req.Addr)
	var invWait event.Time
	if !early {
		invWait = dc.env.Q.Now() - t.procDone
	}
	if t.isRead {
		e := dc.entry(hb)
		prev := e.State
		switch {
		case !t.tearOff:
			e.Sharers = e.Sharers.Add(t.req.Src)
			dc.cfg.Policy.Identifier.SetShared(e, t.si)
		case t.ownerWas >= 0 && e.Sharers.Empty():
			// Tear-off grant whose recalled owner wrote back mid-recall:
			// no tracked copies remain at all.
			dc.cfg.Policy.Identifier.SetIdle(e, core.CauseReplace, directory.Exclusive, false)
		case t.ownerWas >= 0:
			// Tear-off grant served by recall: the owner keeps a tracked
			// downgraded copy.
			dc.cfg.Policy.Identifier.SetShared(e, t.si)
		}
		if sk := dc.env.Sink; sk != nil && e.State != prev {
			sk.OnDirState(dc.env.Q.Now(), dc.node, b, t.req.Txn, prev, e.State)
		}
		dc.send(&netsim.Message{
			Kind: netsim.DataS, Dst: t.req.Src, Addr: b, Txn: t.req.Txn,
			Data: hb.data, SI: t.si, TearOff: t.tearOff,
			Ver: t.ver, HasVer: t.hasVer, InvWait: invWait,
		})
		return
	}
	dc.sendGrant(hb, t.req.Src, b, t.upgrade, t.si, t.ver, t.hasVer, invWait, early, t.req.Txn)
}

// complete finishes a transaction once all acknowledgments are in.
func (dc *DirCtrl) complete(t *txn, hb *homeBlock) {
	b := mem.BlockOf(t.req.Addr)
	e := dc.entry(hb)
	switch {
	case t.isRead:
		// The recalled owner keeps a downgraded shared copy — unless its
		// writeback raced the recall, in which case it holds nothing.
		if t.ownerWas >= 0 {
			if t.ownerRetains {
				e.Sharers = e.Sharers.Add(t.ownerWas)
			}
			e.LastOwner = t.ownerWas
		}
		dc.reply(t, hb, false)
	case t.wcPending:
		if t.requesterDropped {
			prev := e.State
			dc.cfg.Policy.Identifier.SetIdle(e, core.CauseReplace, directory.Exclusive, t.si)
			e.Owner = -1
			if sk := dc.env.Sink; sk != nil && e.State != prev {
				sk.OnDirState(dc.env.Q.Now(), dc.node, b, t.req.Txn, prev, e.State)
			}
		}
		dc.send(&netsim.Message{Kind: netsim.FinalAck, Dst: t.req.Src, Addr: b, Txn: t.req.Txn})
	default:
		prev := e.State
		e.State = directory.Exclusive
		e.Owner = t.req.Src
		e.LastOwner = t.req.Src
		if sk := dc.env.Sink; sk != nil && e.State != prev {
			sk.OnDirState(dc.env.Q.Now(), dc.node, b, t.req.Txn, prev, e.State)
		}
		dc.reply(t, hb, false)
	}
	if sk := dc.env.Sink; sk != nil {
		sk.OnTxnEnd(dc.env.Q.Now(), dc.node, b, t.req.Txn, t.req.Src)
	}
	hb.t = nil
	dc.busyCount--
	*t = txn{}
	dc.txns = append(dc.txns, t)
	dc.dequeue(hb)
}

// dequeue re-admits the next queued request for the block, if any.
//
//dsi:hotpath
func (dc *DirCtrl) dequeue(hb *homeBlock) {
	if next, ok := dc.popQueue(hb); ok {
		dc.admit(next)
	}
}

// onAck consumes an invalidation/recall acknowledgment (or a NackHome
// standing in for one). The pending set identifies exactly which nodes may
// still acknowledge, so duplicates and strays are detected by membership
// rather than by count; the hardened protocol tolerates dataless strays
// (duplicated acks, NackHomes answering re-sent actions after the real ack)
// while data-carrying strays remain invariant violations — the fault plan
// never drops or duplicates data carriers, so a legitimate one is
// impossible.
func (dc *DirCtrl) onAck(m *netsim.Message, hasData, downgraded bool) {
	b := mem.BlockOf(m.Addr)
	hardened := dc.cfg.Retry != nil
	hb := dc.block(b)
	t := hb.t
	if t == nil {
		if hardened && !hasData {
			dc.stats.StrayAcks++
			return
		}
		dc.env.fail("dir %d: stray ack %v", dc.node, *m)
		return
	}
	if !t.pending.Has(m.Src) || (hardened && m.Txn != 0 && m.Txn != t.req.Txn) {
		if hardened && !hasData {
			dc.stats.StrayAcks++
			return
		}
		dc.env.fail("dir %d: surplus ack %v", dc.node, *m)
		return
	}
	if hasData {
		hb.data = m.Data
	}
	if downgraded && m.Src == t.ownerWas {
		t.ownerRetains = true
	}
	if t.migratoryRead && hasData && m.Data.Writer != t.ownerWas {
		// The invalidated owner never wrote the block: the migratory
		// prediction cost it a copy for nothing. Demote.
		dc.entry(hb).Migratory = false
	}
	t.pending = t.pending.Remove(m.Src)
	if t.pending.Empty() {
		dc.complete(t, hb)
	}
}

// onWriteback handles WB/SInvWB: an exclusive copy coming home
// unsolicited, either by replacement or by self-invalidation.
func (dc *DirCtrl) onWriteback(m *netsim.Message, cause core.IdleCause) {
	b := mem.BlockOf(m.Addr)
	hb := dc.block(b)
	e := dc.entry(hb)
	if dc.cfg.Retry != nil && m.Probe {
		// Hardened: an ownership give-back (giveBackGrant) — the sender
		// refused an unsolicited grant it never wrote under. Its payload is
		// stale by construction (the refused grant may be a fault-plan
		// duplicate of one consumed, dirtied, and written back long ago), so
		// it must never overwrite memory: a stale lock word resurrected here
		// is a mutual-exclusion violation or a livelocked spinner. If the
		// give-back's phantom ownership is still recorded, clear it; if a
		// transaction is busy recalling it, the sender's NackHome answer
		// (FIFO behind this give-back) completes that transaction against
		// home memory, which is already correct.
		dc.stats.StrayAcks++
		if hb.t == nil && e.State == directory.Exclusive && e.Owner == m.Src {
			e.LastOwner = m.Src
			e.Owner = -1
			prev := e.State
			dc.cfg.Policy.Identifier.SetIdle(e, cause, directory.Exclusive, m.SI)
			if sk := dc.env.Sink; sk != nil && e.State != prev {
				sk.OnDirState(dc.env.Q.Now(), dc.node, b, m.Txn, prev, e.State)
			}
		}
		return
	}
	if t := hb.t; t != nil {
		switch m.Src {
		case t.ownerWas:
			// The owner's writeback raced our Recall/Inv; the data is
			// captured here and the unconditional ack will complete the
			// transaction.
			hb.data = m.Data
		case t.req.Src:
			// WC: the requester already received the grant and has given
			// the block up again before the FinalAck.
			hb.data = m.Data
			t.requesterDropped = true
		default:
			dc.env.fail("dir %d: writeback from bystander %d during txn for %#x", dc.node, m.Src, uint64(b))
		}
		return
	}
	if e.State != directory.Exclusive || e.Owner != m.Src {
		if dc.cfg.Retry != nil {
			// Hardened: a writeback whose ownership record was already
			// cleared by a racing recovery action. A genuine dirty writeback
			// always finds its sender recorded as owner (or a live
			// transaction above), so the data here duplicates what memory
			// already holds and must not overwrite it.
			dc.stats.StrayAcks++
			return
		}
		dc.env.fail("dir %d: writeback from %d but state %v owner %d for %#x",
			dc.node, m.Src, e.State, e.Owner, uint64(b))
		return
	}
	hb.data = m.Data
	e.LastOwner = m.Src
	e.Owner = -1
	prev := e.State
	dc.cfg.Policy.Identifier.SetIdle(e, cause, directory.Exclusive, m.SI)
	if sk := dc.env.Sink; sk != nil && e.State != prev {
		sk.OnDirState(dc.env.Q.Now(), dc.node, b, m.Txn, prev, e.State)
	}
}

// onSharedDrop handles Repl/SInvNotify: a tracked shared copy disappearing
// by replacement or self-invalidation.
func (dc *DirCtrl) onSharedDrop(m *netsim.Message, cause core.IdleCause) {
	b := mem.BlockOf(m.Addr)
	hb := dc.block(b)
	e := dc.entry(hb)
	if !e.State.IsShared() || !e.Sharers.Has(m.Src) {
		// Stale: the copy was already invalidated by a racing transaction
		// (the node acked the Inv unconditionally). Nothing to do.
		return
	}
	e.Sharers = e.Sharers.Remove(m.Src)
	if e.Sharers.Empty() && hb.t == nil {
		prev := e.State
		dc.cfg.Policy.Identifier.SetIdle(e, cause, prev, m.SI)
		if sk := dc.env.Sink; sk != nil && e.State != prev {
			sk.OnDirState(dc.env.Q.Now(), dc.node, b, m.Txn, prev, e.State)
		}
	}
}
