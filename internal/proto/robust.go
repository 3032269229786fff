// Hardened-protocol support: per-transaction timeouts, bounded retry with
// deterministic exponential backoff, duplicate-request deduplication, grant
// replay, and negative acknowledgments. All of it is gated on Config.Retry —
// when Retry is nil the controllers run the strict base protocol, treat any
// anomaly as an invariant violation, and arm no timers, so the fault-free
// fast path is untouched (docs/FAULTS.md).
//
// Recovery relies on two properties the network guarantees even under a
// fault plan: per-(src,dst) delivery stays FIFO, and the message kinds whose
// loss is unrecoverable (data carriers, unsolicited writebacks and notices —
// see netsim.Kind.Droppable) are delayed, never dropped. Everything else is
// covered by retransmission: requests and probes are deduplicated by
// (source, transaction id) at the directory, re-sent coherence actions are
// answered with NackHome when the copy is already gone, and grants are
// replayed from directory state when the original reply was lost.
package proto

import (
	"sort"

	"dsisim/internal/cache"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
)

// RetryConfig enables the hardened protocol and parameterizes its recovery
// machinery.
type RetryConfig struct {
	// Timeout is the base per-transaction timer: a cache-side miss or
	// directory-side transaction that has not completed within Timeout
	// cycles retransmits its request or coherence action. It should be
	// generously above the worst-case round trip so clean runs never time
	// out.
	Timeout event.Time
	// Max bounds the retransmissions per transaction; exceeding it is
	// reported as a protocol failure (livelock) instead of retrying forever.
	Max int
	// QueueLimit bounds the per-block request queue at the directory;
	// requests beyond it are refused with a Nack and retried by the
	// requester after backoff. 0 means unbounded.
	QueueLimit int
}

// DefaultRetry returns the retry parameters the machine installs when a
// fault plan is configured: a timeout comfortably above the worst-case
// round trip for the given network latency.
func DefaultRetry(latency event.Time) *RetryConfig {
	if latency <= 0 {
		latency = 1
	}
	return &RetryConfig{Timeout: 8*latency + 512, Max: 12}
}

// maxBackoffShift caps the exponential backoff doubling so the timer value
// cannot overflow and the worst-case wait stays bounded.
const maxBackoffShift = 10

// backoff returns the timer value for the retries-th retransmission:
// Timeout doubled per retry, capped at Timeout << maxBackoffShift.
//
//dsi:hotpath
func (r *RetryConfig) backoff(retries int) event.Time {
	s := retries
	if s > maxBackoffShift {
		s = maxBackoffShift
	}
	return r.Timeout << uint(s)
}

// --- cache-side timers -------------------------------------------------------

// retryCall is a pooled record for one armed cache-side transaction timer.
// The event queue cannot cancel events, so the record carries the (block,
// transaction, generation) triple it was armed for and doCacheRetry
// validates it against live state on fire; completed or re-armed
// transactions make stale timers vanish without side effects.
type retryCall struct {
	cc  *CacheCtrl
	b   mem.Addr
	txn uint64
	gen uint32
}

// armMissTimer schedules the next timeout for the outstanding miss on b,
// invalidating any previously armed timer via the generation counter.
//
//dsi:hotpath
func (cc *CacheCtrl) armMissTimer(b mem.Addr, ms *mshr) {
	ms.tgen++
	rc := cc.newRetryCall()
	rc.b, rc.txn, rc.gen = b, ms.txn, ms.tgen
	cc.env.Q.AtCall(cc.env.Q.Now()+cc.cfg.Retry.backoff(ms.retries), doCacheRetry, rc)
}

// armFinalTimer schedules the next timeout for a write-buffer entry awaiting
// its FinalAck. Callers set e.txn/e.retries before the first arm.
//
//dsi:hotpath
func (cc *CacheCtrl) armFinalTimer(b mem.Addr, e *wbEntry) {
	e.tgen++
	rc := cc.newRetryCall()
	rc.b, rc.txn, rc.gen = b, e.txn, e.tgen
	cc.env.Q.AtCall(cc.env.Q.Now()+cc.cfg.Retry.backoff(e.retries), doCacheRetry, rc)
}

//dsi:hotpath
func (cc *CacheCtrl) newRetryCall() *retryCall {
	if n := len(cc.rtFree); n > 0 {
		rc := cc.rtFree[n-1]
		cc.rtFree = cc.rtFree[:n-1]
		return rc
	}
	return &retryCall{cc: cc}
}

// doCacheRetry is the static action for cache-side timers: recycle the
// record, then fire only if the transaction it was armed for is still live
// and has not re-armed since.
//
//dsi:hotpath
func doCacheRetry(arg any) {
	rc := arg.(*retryCall)
	cc, b, txnID, gen := rc.cc, rc.b, rc.txn, rc.gen
	rc.b, rc.txn, rc.gen = 0, 0, 0
	cc.rtFree = append(cc.rtFree, rc)
	idx := mem.BlockIndex(b)
	if ms := cc.misses.Get(idx); ms != nil && ms.txn == txnID && ms.tgen == gen {
		cc.onMissTimeout(b, ms)
		return
	}
	if e := cc.wbs.Get(idx); e != nil && e.pendingFinal && e.txn == txnID && e.tgen == gen {
		cc.onFinalTimeout(b, e)
	}
	// Otherwise the transaction completed before the timer fired: stale.
}

// onMissTimeout retransmits an outstanding miss whose reply is overdue.
func (cc *CacheCtrl) onMissTimeout(b mem.Addr, ms *mshr) {
	r := cc.cfg.Retry
	ms.retries++
	cc.stats.Timeouts++
	if ms.retries > r.Max {
		cc.env.fail("cache %d: giving up on %v miss for %#x (txn %d) after %d retries",
			cc.node, ms.kind, uint64(b), ms.txn, r.Max)
		return // no re-arm: the stuck miss surfaces in the watchdog dump
	}
	if sk := cc.env.Sink; sk != nil {
		sk.OnRetryTimeout(cc.env.Q.Now(), cc.node, b, ms.txn, ms.retries, false)
	}
	cc.stats.Retries++
	if ms.waitingFinal {
		// The grant was consumed but the FinalAck is missing: probe with a
		// retransmitted GetX; an idle directory that already recorded this
		// node as owner replays the grant with Pending cleared.
		cc.sendProbe(b, ms.txn)
	} else {
		cc.sendRequest(b, ms, false)
	}
	cc.armMissTimer(b, ms)
}

// onFinalTimeout probes for a FinalAck that never arrived for a pending
// write-buffer entry.
func (cc *CacheCtrl) onFinalTimeout(b mem.Addr, e *wbEntry) {
	r := cc.cfg.Retry
	e.retries++
	cc.stats.Timeouts++
	if e.retries > r.Max {
		cc.env.fail("cache %d: giving up on FinalAck for %#x (txn %d) after %d retries",
			cc.node, uint64(b), e.txn, r.Max)
		return
	}
	if sk := cc.env.Sink; sk != nil {
		sk.OnRetryTimeout(cc.env.Q.Now(), cc.node, b, e.txn, e.retries, false)
	}
	cc.stats.Retries++
	cc.sendProbe(b, e.txn)
	cc.armFinalTimer(b, e)
}

// sendProbe retransmits a GetX carrying the original transaction id, used
// to recover a lost grant or FinalAck. It is marked Probe because the
// grant was already consumed here: the directory either deduplicates it
// (transaction still busy), replays the grant from its recorded state, or —
// when the block's state has since moved past this transaction — re-sends
// the FinalAck instead of serving the probe as a fresh request.
func (cc *CacheCtrl) sendProbe(b mem.Addr, txnID uint64) {
	ver, hasVer := cc.c.EchoVersion(b)
	_, done := cc.server.Admit(cc.env.Q.Now(), CacheOccupancy)
	sc := cc.newSendCall()
	sc.msg = netsim.Message{Kind: netsim.GetX, Dst: cc.home(b), Addr: b, Ver: ver, HasVer: hasVer, Txn: txnID, Probe: true}
	cc.env.Q.AtCall(done, doSendCall, sc)
}

// onNack handles a directory Nack (request refused under overload): bump the
// retry count and re-arm the backoff timer; the timer retransmits.
func (cc *CacheCtrl) onNack(m *netsim.Message) {
	b := mem.BlockOf(m.Addr)
	if cc.cfg.Retry == nil {
		cc.env.fail("cache %d: Nack without retry enabled: %v", cc.node, *m)
		return
	}
	idx := mem.BlockIndex(b)
	if ms := cc.misses.Get(idx); ms != nil && ms.txn == m.Txn {
		cc.stats.NacksRecv++
		ms.retries++
		if ms.retries > cc.cfg.Retry.Max {
			cc.env.fail("cache %d: giving up on %v miss for %#x (txn %d): nacked %d times",
				cc.node, ms.kind, uint64(b), ms.txn, cc.cfg.Retry.Max)
			return
		}
		cc.armMissTimer(b, ms)
		return
	}
	if e := cc.wbs.Get(idx); e != nil && e.pendingFinal && e.txn == m.Txn {
		cc.stats.NacksRecv++
		e.retries++
		if e.retries > cc.cfg.Retry.Max {
			cc.env.fail("cache %d: giving up on FinalAck probe for %#x (txn %d): nacked %d times",
				cc.node, uint64(b), e.txn, cc.cfg.Retry.Max)
			return
		}
		cc.armFinalTimer(b, e)
		return
	}
	cc.stats.StraysIgnored++
}

// recoverGrantReplay handles a DataX that matches no outstanding miss. The
// only live-state match is a write-buffer entry still waiting for a lost
// FinalAck: a replayed grant with Pending cleared stands in for it. If the
// cache no longer holds the block (it was dropped mid-transaction and the
// directory re-granted ownership), the replay is installed so directory and
// cache agree at quiesce; if the copy is live it is newer than home memory
// and must not be clobbered.
//
// With no matching write-buffer entry either, the grant came from a stale
// request — a fault-plan duplicate of a request this cache has long since
// been served for, processed by the directory as fresh after the block's
// ownership moved on. The directory now records this node as exclusive
// owner, so silently ignoring the grant would leave the two disagreeing at
// quiesce: instead the ownership is handed straight back with a writeback
// (giveBackGrant). A duplicate of a grant whose copy is still live here is
// the one genuinely ignorable case — directory and cache already agree.
func (cc *CacheCtrl) recoverGrantReplay(b mem.Addr, m *netsim.Message) {
	e := cc.wbs.Get(mem.BlockIndex(b))
	if e != nil && e.pendingFinal && e.txn == m.Txn && !m.Pending {
		if _, held := cc.c.Peek(b); !held {
			cc.install(b, cache.Exclusive, m)
		}
		cc.retire(e)
		return
	}
	if e == nil {
		cc.giveBackGrant(b, m)
		return
	}
	cc.stats.StraysIgnored++
}

// giveBackGrant refuses an unsolicited exclusive grant. The directory may
// have just recorded this node as owner, so the refusal must reach it
// reliably — a writeback, which fault plans never drop, returns the
// ownership and restores agreement:
//
//   - exclusive copy held: the grant is a duplicate of one already
//     consumed; directory and cache agree, drop the message.
//   - shared copy held: the directory promoted this node to owner over its
//     downgraded copy; invalidate the copy and hand the ownership back.
//   - nothing held: hand the grant straight back.
//
// The give-back carries the Probe mark: its data is whatever stale payload
// the grant carried (or a clean shared copy), never a dirty line, and the
// grant itself may be a duplicate of one consumed and long since written
// back — so the directory must treat it purely as an ownership return and
// never let it overwrite memory (see onWriteback). This node wrote nothing
// under the refused grant; home memory already holds the right contents.
func (cc *CacheCtrl) giveBackGrant(b mem.Addr, m *netsim.Message) {
	if f, held := cc.c.Peek(b); held {
		if f.State == cache.Exclusive {
			cc.stats.StraysIgnored++
			return
		}
		ev, _ := cc.c.Invalidate(b)
		if cc.hist != nil {
			cc.hist.OnInvalidate(b)
		}
		if sk := cc.env.Sink; sk != nil {
			sk.OnCacheState(cc.env.Q.Now(), cc.node, b, m.Txn, ev.State, cache.Invalid, 0)
		}
	}
	cc.stats.GrantsReturned++
	cc.send(&netsim.Message{Kind: netsim.WB, Dst: cc.home(b), Addr: b, Txn: m.Txn, Probe: true})
}

// OutstandingMiss describes one stuck cache-side operation, for the
// liveness watchdog's diagnostic dump.
type OutstandingMiss struct {
	Addr mem.Addr
	Txn  uint64
	// Op is the operation kind: "read", "write", "swap", or "final-ack"
	// for a write-buffer entry awaiting its FinalAck.
	Op      string
	Retries int
	Start   event.Time
	// WaitingFinal marks operations whose grant arrived but whose FinalAck
	// has not.
	WaitingFinal bool
}

// DumpOutstanding lists the controller's outstanding misses and unretired
// write-buffer entries, sorted by block address for deterministic output.
func (cc *CacheCtrl) DumpOutstanding() []OutstandingMiss {
	out := make([]OutstandingMiss, 0, cc.misses.Len()+cc.wbs.Len())
	cc.misses.ForEach(func(idx uint64, ms *mshr) {
		out = append(out, OutstandingMiss{
			Addr: mem.Addr(idx) << mem.BlockShift, Txn: ms.txn, Op: ms.kind.String(),
			Retries: ms.retries, Start: ms.start, WaitingFinal: ms.waitingFinal,
		})
	})
	cc.wbs.ForEach(func(idx uint64, e *wbEntry) {
		if e.pendingFinal && cc.misses.Get(idx) == nil {
			out = append(out, OutstandingMiss{
				Addr: mem.Addr(idx) << mem.BlockShift, Txn: e.txn, Op: "final-ack",
				Retries: e.retries, WaitingFinal: true,
			})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Txn < out[j].Txn
	})
	return out
}

// --- directory-side timers and recovery --------------------------------------

// dirRetryCall is the directory-side analog of retryCall: a pooled armed
// timer validated against the live transaction on fire.
type dirRetryCall struct {
	dc  *DirCtrl
	b   mem.Addr
	txn uint64
	gen uint32
}

// armTxnTimer schedules the next timeout for block b's live transaction.
//
//dsi:hotpath
func (dc *DirCtrl) armTxnTimer(b mem.Addr, t *txn) {
	t.tgen++
	var rc *dirRetryCall
	if n := len(dc.rtFree); n > 0 {
		rc = dc.rtFree[n-1]
		dc.rtFree = dc.rtFree[:n-1]
	} else {
		rc = &dirRetryCall{dc: dc}
	}
	rc.b, rc.txn, rc.gen = b, t.req.Txn, t.tgen
	dc.env.Q.AtCall(dc.env.Q.Now()+dc.cfg.Retry.backoff(t.retries), doDirRetry, rc)
}

// doDirRetry is the static action for directory-side timers.
//
//dsi:hotpath
func doDirRetry(arg any) {
	rc := arg.(*dirRetryCall)
	dc, b, txnID, gen := rc.dc, rc.b, rc.txn, rc.gen
	rc.b, rc.txn, rc.gen = 0, 0, 0
	dc.rtFree = append(dc.rtFree, rc)
	if hb := dc.h.blocks.Get(mem.BlockIndex(b)); hb != nil && hb.t != nil &&
		hb.t.req.Txn == txnID && hb.t.tgen == gen {
		dc.onTxnTimeout(b, hb.t)
	}
}

// onTxnTimeout re-sends the transaction's coherence action (Inv or Recall)
// to every node whose acknowledgment is still missing. Nodes that already
// invalidated answer with NackHome, which the directory consumes like an
// ack; the per-pair FIFO guarantees a delayed real acknowledgment always
// arrives before the NackHome triggered by the re-sent action.
func (dc *DirCtrl) onTxnTimeout(b mem.Addr, t *txn) {
	r := dc.cfg.Retry
	t.retries++
	dc.stats.Timeouts++
	if t.retries > r.Max {
		dc.env.fail("dir %d: giving up on txn %d for %#x after %d retries (awaiting %v)",
			dc.node, t.req.Txn, uint64(b), r.Max, t.pending)
		return // no re-arm: the stuck transaction surfaces in the watchdog dump
	}
	if sk := dc.env.Sink; sk != nil {
		sk.OnRetryTimeout(dc.env.Q.Now(), dc.node, b, t.req.Txn, t.retries, true)
	}
	t.pending.ForEach(func(n int) {
		dc.stats.RetriesSent++
		dc.send(&netsim.Message{Kind: t.action, Dst: n, Addr: b, Txn: t.req.Txn})
	})
	dc.armTxnTimer(b, t)
}

// isDuplicate reports whether m is a retransmission of the block's live
// transaction or of a request already queued behind it.
func (dc *DirCtrl) isDuplicate(t *txn, hb *homeBlock, m *netsim.Message) bool {
	if t.req.Src == m.Src && t.req.Txn == m.Txn {
		return true
	}
	for id := hb.qHead; id != 0; id = dc.h.qNodes[id-1].next {
		if q := &dc.h.qNodes[id-1].m; q.Src == m.Src && q.Txn == m.Txn {
			return true
		}
	}
	return false
}

// replayed handles a request whose effect is already recorded in the
// directory — the original reply was lost, or a duplicate arrived after the
// transaction completed. The grant is re-sent from directory state without
// touching the sharer set or the DSI policy (a conservative unmarked replay
// only delays self-invalidation, never breaks coherence). Reports whether
// the request was consumed.
func (dc *DirCtrl) replayed(hb *homeBlock, b mem.Addr, m *netsim.Message) bool {
	e := dc.entry(hb)
	switch m.Kind {
	case netsim.GetS:
		if e.State.IsShared() && e.Sharers.Has(m.Src) {
			dc.stats.Replays++
			dc.send(&netsim.Message{
				Kind: netsim.DataS, Dst: m.Src, Addr: b, Txn: m.Txn,
				Data: hb.data,
			})
			return true
		}
		if e.State == directory.Exclusive && e.Owner == m.Src {
			// A migratory read answered with an exclusive grant that was
			// lost: replay it.
			dc.stats.Replays++
			dc.send(&netsim.Message{
				Kind: netsim.DataX, Dst: m.Src, Addr: b, Txn: m.Txn,
				Data: hb.data,
			})
			return true
		}
	case netsim.GetX, netsim.Upgrade:
		if e.State == directory.Exclusive && e.Owner == m.Src {
			// The requester already owns the block: the grant or its
			// FinalAck was lost. Replay a DataX with Pending cleared; the
			// data is simulator bookkeeping (the receiver installs it only
			// when its copy is gone).
			dc.stats.Replays++
			dc.send(&netsim.Message{
				Kind: netsim.DataX, Dst: m.Src, Addr: b, Txn: m.Txn,
				Data: hb.data,
			})
			return true
		}
	default:
		// Handle dispatches only requests into process.
		dc.env.fail("replay check on non-request %v", m.Kind)
	}
	return false
}

// BusyTxn describes one live directory transaction, for the liveness
// watchdog's diagnostic dump.
type BusyTxn struct {
	Addr mem.Addr
	Txn  uint64
	// Req is the request kind that opened the transaction; From its source.
	Req  netsim.Kind
	From int
	// Action is the coherence action (Inv or Recall) re-sent on timeout;
	// Pending the nodes whose acknowledgments are still missing.
	Action  netsim.Kind
	Pending directory.NodeSet
	Retries int
	// Queued is the number of requests waiting behind the busy block.
	Queued int
}

// DumpBusy lists the controller's live transactions, sorted by block
// address for deterministic output: those of the blocks homed here, out of
// the machine's shared table.
func (dc *DirCtrl) DumpBusy() []BusyTxn {
	out := make([]BusyTxn, 0, dc.busyCount)
	dc.h.blocks.ForEach(func(idx uint64, hb *homeBlock) {
		t := hb.t
		if t == nil || dc.HomeOf(mem.Addr(idx)<<mem.BlockShift) != dc.node {
			return
		}
		out = append(out, BusyTxn{
			Addr: mem.Addr(idx) << mem.BlockShift, Txn: t.req.Txn, Req: t.req.Kind, From: t.req.Src,
			Action: t.action, Pending: t.pending, Retries: t.retries,
			Queued: int(hb.qLen),
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
