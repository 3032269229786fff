package proto

import (
	"strconv"

	"dsisim/internal/blockmap"
	"dsisim/internal/cache"
	"dsisim/internal/core"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/obs"
)

type opKind int

const (
	opRead opKind = iota
	opWrite
	opSwap
)

var opKindNames = [...]string{opRead: "read", opWrite: "write", opSwap: "swap"}

func (k opKind) String() string {
	if k < 0 || int(k) >= len(opKindNames) {
		return "opKind(" + strconv.Itoa(int(k)) + ")"
	}
	return opKindNames[k]
}

// missReq is the operation a miss is opened for, as the processor-facing
// call knows it at issue. At 56 bytes it copies inline, so opening an MSHR
// costs no block copy.
type missReq struct {
	kind  opKind
	addr  mem.Addr // full faulting address (selects the word within the block)
	st    Store    // store to perform on grant (write/swap)
	cont  func(*Result)
	start event.Time
}

// mshr is one outstanding miss. Under SC there is at most one per
// processor; under WC there can be one read plus up to WriteBufferEntries
// write misses.
type mshr struct {
	missReq

	// waitingFinal marks a WC swap whose grant arrived with Pending set: res
	// holds its result, complete but for Done, and completion waits for the
	// FinalAck.
	waitingFinal bool
	res          Result

	// Hardened protocol (robust.go): the transaction id requests carry (so
	// retransmissions are deduplicated at the directory), the
	// retransmission count, and the timer generation — the armed timer
	// whose generation no longer matches is stale and fires as a no-op.
	txn     uint64
	retries int
	tgen    uint32
}

// wbEntry is one coalescing write buffer slot: a whole cache block's worth
// of buffered words with a per-word valid mask, as the paper describes
// ("each entry in the write buffer contains an entire cache block").
type wbEntry struct {
	addr         mem.Addr
	words        [mem.WordsPerBlock]uint64
	mask         [mem.WordsPerBlock]bool
	writer       int
	seq          uint64
	dataArrived  bool
	pendingFinal bool
	// readWaiters are reads stalled until the block's data arrives.
	readWaiters []func(*Result)
	// blockedStores were issued after the block's data arrived but left the
	// cache again; they re-execute when the entry retires.
	blockedStores []pendingStore

	// Hardened protocol (robust.go): while pendingFinal, the entry owns a
	// probe timer for its lost-FinalAck recovery; see mshr for the field
	// semantics.
	txn     uint64
	retries int
	tgen    uint32
}

// coalesce folds a store into the entry.
func (e *wbEntry) coalesce(a mem.Addr, st Store) {
	e.words[mem.WordIndex(a)] = st.Word
	e.mask[mem.WordIndex(a)] = true
	e.writer = st.Writer
	e.seq = st.Seq
}

// apply merges the buffered words into arrived block contents.
func (e *wbEntry) apply(v *mem.Value) {
	v.Writer = e.writer
	v.Seq = e.seq
	for i, ok := range e.mask {
		if ok {
			v.Words[i] = e.words[i]
		}
	}
}

type pendingStore struct {
	addr  mem.Addr
	st    Store
	start event.Time
	cont  func(*Result)
}

// CacheStats counts cache-controller events.
type CacheStats struct {
	ReadMisses      int64
	WriteMisses     int64
	Upgrades        int64
	SwapMisses      int64
	SIReceived      int64 // marked blocks installed
	CacheSideMarked int64 // blocks marked by the local invalidation-history table
	TearOffRecv     int64
	SyncFlushes     int64
	SINotifies      int64 // SInvNotify/SInvWB messages sent
	InvsReceived    int64
	RecallsRecv     int64
	WBFullStalls    int64
	ReadWBStalls    int64

	// Hardened protocol only (zero when Config.Retry is nil).
	Timeouts      int64 // retry timers that fired for a live transaction
	Retries       int64 // requests/probes retransmitted
	NacksRecv     int64 // directory Nacks received (overload backoff)
	NackHomesSent int64 // re-sent Inv/Recall answered "no copy here"
	StraysIgnored int64 // duplicate/stale messages tolerated instead of failed
	// GrantsReturned counts unsolicited grants handed straight back: the
	// directory served a stale duplicated request as fresh and recorded a
	// copy here that this cache never asked for (see giveBackGrant).
	GrantsReturned int64
}

// CacheCtrl is the cache controller of one node: it services the
// processor's loads/stores/swaps, reacts to directory coherence actions,
// and performs self-invalidation per the configured DSI mechanism.
type CacheCtrl struct {
	env    *Env
	node   int
	cfg    Config
	c      *cache.Cache
	si     core.SelfInval // the policy's FIFO and history table
	server event.Server

	// scTear is the block address of the (single) sequentially consistent
	// tear-off copy, 0 when none (§3.3: invalidated at the next miss).
	scTear mem.Addr

	// misses holds the outstanding misses and wbs the unretired
	// write-buffer entries, each keyed by block index. Only a few are ever
	// live — one miss under SC; under WC a read miss plus one per
	// write-buffer entry, and entries exist only under WC (bufferStore is
	// their sole allocator) — so short lists serve where a per-block table
	// would span the address space.
	misses blockmap.List[*mshr]
	wbs    blockmap.List[*wbEntry]

	// Weak consistency write buffer overflow queue.
	stalled []pendingStore
	drain   []func()

	// slot is where every completion writes its result before handing it to
	// the continuation: own, the controller's completion slot, unless a
	// processor lent its own (see CompleteInto). Either way the result is
	// valid only until the next completion, so a continuation that keeps it
	// copies it.
	slot *Result
	own  Result

	// Free lists for the hot-path records (single-threaded per machine):
	// retired MSHRs, retired write-buffer entries, and the typed-event
	// records that replace the per-miss and per-flush closures.
	msFree    []*mshr
	wbFree    []*wbEntry
	sendFree  []*sendCall
	flushFree []*flushCall
	rtFree    []*retryCall

	stats CacheStats
}

// sendCall is a pooled record carrying a request message across the cache
// controller occupancy delay (the typed event argument replacing the
// closure in issueMiss).
type sendCall struct {
	cc  *CacheCtrl
	msg netsim.Message
}

// doSendCall is the static action for deferred request injection. The send
// copies the message out, so the record is recycled afterwards.
//
//dsi:hotpath
func doSendCall(arg any) {
	c := arg.(*sendCall)
	cc := c.cc
	cc.send(&c.msg)
	cc.sendFree = append(cc.sendFree, c)
}

// flushCall is a pooled record resuming the processor after a sync-point
// self-invalidation flush.
type flushCall struct {
	cc   *CacheCtrl
	cont func(*Result)
}

// doFlushCall is the static action completing SyncFlush; it fires exactly
// at the resume time, so Done is the current clock.
func doFlushCall(arg any) {
	c := arg.(*flushCall)
	cc, cont := c.cc, c.cont
	c.cont = nil
	cc.flushFree = append(cc.flushFree, c)
	cont(cc.result(cc.env.Q.Now()))
}

// CompleteInto makes r the slot every completion writes its result into
// and hands its continuation, in place of the controller's own. A processor
// lends its result slot this way, so results reach it without a copy; r
// must outlive the controller's use. The slot is rewritten only to complete
// an operation, and a processor has one operation in flight, so its result
// stays put until it issues the next.
func (cc *CacheCtrl) CompleteInto(r *Result) { cc.slot = r }

// result resets the completion slot to a result done at now and returns it
// for the caller to fill in and hand to a continuation.
//
//dsi:hotpath
func (cc *CacheCtrl) result(now event.Time) *Result {
	*cc.slot = Result{Done: now}
	return cc.slot
}

// newMshr takes an MSHR from the free list (or allocates one) and opens it
// for req.
//
//dsi:hotpath
func (cc *CacheCtrl) newMshr(req missReq) *mshr {
	var ms *mshr
	if n := len(cc.msFree); n > 0 {
		ms = cc.msFree[n-1]
		cc.msFree = cc.msFree[:n-1]
	} else {
		ms = new(mshr)
	}
	ms.missReq = req
	return ms
}

// finish completes a miss detached from its block: it recycles the MSHR and
// hands the continuation r. Callers must not touch ms afterwards.
//
//dsi:hotpath
func (cc *CacheCtrl) finish(ms *mshr, r *Result) {
	cont := ms.cont
	cc.freeMshr(ms)
	cont(r)
}

// finishParked completes a WC swap parked for its FinalAck with the result
// its grant left in the MSHR.
func (cc *CacheCtrl) finishParked(ms *mshr) {
	now := cc.env.Q.Now()
	r := cc.slot
	*r = ms.res
	r.Done = now
	cc.finish(ms, r)
}

// freeMshr recycles a retired MSHR. Callers must not touch ms afterwards.
func (cc *CacheCtrl) freeMshr(ms *mshr) {
	*ms = mshr{}
	cc.msFree = append(cc.msFree, ms)
}

// NewCacheCtrl builds the cache controller for node with geometry geo.
func NewCacheCtrl(env *Env, node int, cfg Config, geo cache.Config) *CacheCtrl {
	cc := &CacheCtrl{
		env:  env,
		node: node,
		cfg:  cfg,
		c:    cache.New(geo),
	}
	cc.slot = &cc.own
	cc.si.Reset(cfg.Policy)
	if cfg.Consistency == WC && cfg.WriteBufferEntries <= 0 {
		panic("proto: WC requires a write buffer")
	}
	return cc
}

// Reset returns the controller to its initial state under a (possibly
// different) protocol configuration, keeping every allocation: the cache
// arrays, the self-invalidation state, the miss and write-buffer lists, and
// the record free lists. The geometry is fixed at construction; cfg carries
// the per-run protocol knobs. Machine reuse calls this between runs.
func (cc *CacheCtrl) Reset(cfg Config) {
	if cfg.Consistency == WC && cfg.WriteBufferEntries <= 0 {
		panic("proto: WC requires a write buffer")
	}
	cc.cfg = cfg
	cc.c.Reset()
	cc.si.Reset(cfg.Policy)
	cc.server.Reset()
	cc.scTear = 0
	cc.misses.Reset()
	cc.wbs.Reset()
	clear(cc.stalled)
	cc.stalled = cc.stalled[:0]
	clear(cc.drain)
	cc.drain = cc.drain[:0]
	cc.stats = CacheStats{}
}

// Cache exposes the cache array for checkers.
func (cc *CacheCtrl) Cache() *cache.Cache { return cc.c }

// FIFODisplacements returns the self-invalidations the node's FIFO forced
// early this run (zero without a FIFO).
func (cc *CacheCtrl) FIFODisplacements() int64 { return cc.si.Displacements() }

// Stats returns a snapshot of the counters.
func (cc *CacheCtrl) Stats() CacheStats { return cc.stats }

// Outstanding reports in-flight misses plus unretired write-buffer entries,
// for quiesce detection.
func (cc *CacheCtrl) Outstanding() int { return cc.misses.Len() + cc.wbs.Len() + len(cc.stalled) }

// WBEmpty reports whether the write buffer has fully drained.
//
//dsi:hotpath
func (cc *CacheCtrl) WBEmpty() bool { return cc.wbs.Len() == 0 && len(cc.stalled) == 0 }

// send stamps m as this node's and injects it. The network copies it, so m
// may live on the caller's stack.
//
//dsi:hotpath
func (cc *CacheCtrl) send(m *netsim.Message) {
	m.Src = cc.node
	cc.env.Net.Send(m)
}

func (cc *CacheCtrl) home(a mem.Addr) int { return cc.env.Layout.Home(a) }

// --- processor-facing operations -------------------------------------------

// Read performs a load. cont may run synchronously on a hit. Every
// processor-facing completion writes its result into the completion slot
// (see CompleteInto) and hands cont a pointer to it, valid until the next
// completion.
//
//dsi:hotpath
func (cc *CacheCtrl) Read(a mem.Addr, cont func(*Result)) {
	now := cc.env.Q.Now()
	if f, hit := cc.c.Lookup(a); hit {
		r := cc.result(now)
		r.Hit = true
		r.Value = f.Data
		if cc.wbs.Len() > 0 {
			cc.forwardBuffered(a, &r.Value)
		}
		cont(r)
		return
	}
	b := mem.BlockOf(a)
	// Write-buffer entries exist only under WC, so the SC read miss never
	// looks for one.
	if cc.cfg.Consistency == WC {
		if e := cc.wbs.Get(mem.BlockIndex(b)); e != nil {
			if !e.dataArrived {
				// Stalled behind an outstanding write miss ("read wb" time).
				cc.stats.ReadWBStalls++
				e.readWaiters = append(e.readWaiters, cont)
				return
			}
			// Data arrived but the block has since left the cache; fall
			// through to a fresh read miss (the earlier writeback is
			// FIFO-ordered ahead of the new request).
		}
	}
	cc.stats.ReadMisses++
	cc.issueMiss(b, cc.newMshr(missReq{kind: opRead, cont: cont, start: now}))
}

// Touch performs a load whose value the processor discards: Read, minus the
// copy of the block a hit would hand back. A miss is an ordinary Read.
//
//dsi:hotpath
func (cc *CacheCtrl) Touch(a mem.Addr, cont func(*Result)) {
	if cc.c.Touch(a) {
		r := cc.result(cc.env.Q.Now())
		r.Hit = true
		cont(r)
		return
	}
	cc.Read(a, cont)
}

// forwardBuffered merges into v the stores a's block has waiting in the
// write buffer, so a processor sees its own stores: a hit on a copy whose
// write miss or upgrade is still outstanding finds them only there. Once the
// block's data has arrived the entry's stores are in the cache copy, and a
// stalled or blocked store has not completed, so its processor is not
// loading yet.
//
//dsi:hotpath
func (cc *CacheCtrl) forwardBuffered(a mem.Addr, v *mem.Value) {
	if e := cc.wbs.Get(mem.BlockIndex(a)); e != nil && !e.dataArrived {
		e.apply(v)
	}
}

// Write performs a store. Under SC the processor stalls until completion;
// under WC the store is buffered and cont runs when the write buffer
// accepts it.
//
//dsi:hotpath
func (cc *CacheCtrl) Write(a mem.Addr, st Store, cont func(*Result)) {
	now := cc.env.Q.Now()
	if f, hit := cc.c.Lookup(a); hit && f.State == cache.Exclusive {
		st.MergeInto(&f.Data, a)
		r := cc.result(now)
		r.Hit = true
		cont(r)
		return
	}
	if cc.cfg.Consistency == WC {
		cc.bufferStore(pendingStore{addr: a, st: st, start: now, cont: cont})
		return
	}
	cc.stats.WriteMisses++
	cc.issueMiss(mem.BlockOf(a), cc.newMshr(missReq{kind: opWrite, addr: a, st: st, cont: cont, start: now}))
}

// Swap atomically exchanges the word at a, returning the previous word. The
// caller must drain the write buffer first under WC.
func (cc *CacheCtrl) Swap(a mem.Addr, newWord uint64, st Store, cont func(*Result)) {
	now := cc.env.Q.Now()
	st.Word = newWord
	if f, hit := cc.c.Lookup(a); hit && f.State == cache.Exclusive {
		r := cc.result(now)
		r.Hit = true
		r.OldWord = f.Data.WordAt(a)
		r.Value = f.Data
		st.MergeInto(&f.Data, a)
		cont(r)
		return
	}
	cc.stats.SwapMisses++
	cc.issueMiss(mem.BlockOf(a), cc.newMshr(missReq{kind: opSwap, addr: a, st: st, cont: cont, start: now}))
}

// SyncFlush performs the DSI self-invalidation due at a synchronization
// point: tear-off blocks flash-clear in one cycle; tracked marked blocks
// are invalidated and their notifications injected back-to-back. cont runs
// once the processor may proceed (all notifications injected).
func (cc *CacheCtrl) SyncFlush(cont func(*Result)) {
	now := cc.env.Q.Now()
	cc.stats.SyncFlushes++
	evs := cc.si.OnSync(cc.c)
	resume := now + event.Time(cc.si.ScanLatency(cc.c))
	for _, ev := range evs {
		if sk := cc.env.Sink; sk != nil {
			sk.OnSelfInval(now, cc.node, ev.Addr, ev.State, ev.TearOff, false)
		}
		if ev.TearOff {
			if r := now + TearOffFlash; r > resume {
				resume = r
			}
			continue
		}

		cc.notifySelfInval(ev)
	}
	if free := cc.env.Net.NIFree(cc.node); free > resume {
		resume = free
	}
	var fc *flushCall
	if n := len(cc.flushFree); n > 0 {
		fc = cc.flushFree[n-1]
		cc.flushFree = cc.flushFree[:n-1]
	} else {
		fc = &flushCall{cc: cc}
	}
	fc.cont = cont
	cc.env.Q.AtCall(resume, doFlushCall, fc)
}

// DrainWB calls cont once every buffered write has been acknowledged (a
// no-op under SC).
func (cc *CacheCtrl) DrainWB(cont func()) {
	if cc.cfg.Consistency != WC || cc.WBEmpty() {
		cont()
		return
	}
	cc.drain = append(cc.drain, cont)
}

// --- miss machinery ---------------------------------------------------------

//dsi:hotpath
func (cc *CacheCtrl) issueMiss(b mem.Addr, ms *mshr) {
	// Sequentially consistent tear-off copies die at the next cache miss
	// (Scheurich's condition): until this processor misses, it cannot
	// observe new values, so its reads order legally before the conflicting
	// write.
	if cc.scTear != 0 {
		ev, had := cc.c.Invalidate(cc.scTear) // untracked: silent
		if sk := cc.env.Sink; sk != nil && had {
			sk.OnCacheState(cc.env.Q.Now(), cc.node, cc.scTear, 0, ev.State, cache.Invalid, obs.FlagTearOff)
		}
		cc.scTear = 0
	}
	idx := mem.BlockIndex(b)
	if cc.misses.Get(idx) != nil {
		cc.env.fail("cache %d: duplicate miss for %#x", cc.node, uint64(b))
		return
	}
	if cc.cfg.Consistency == SC && cc.misses.Len() != 0 {
		cc.env.fail("cache %d: multiple outstanding misses under SC", cc.node)
	}
	cc.misses.Put(idx, ms)
	// Transaction ids are drawn unconditionally: the counter advances with
	// the protocol's own deterministic order, so ids are stable run to run
	// whether or not a sink is attached (and cost nothing either way).
	// Retransmissions reuse the id so the directory can deduplicate them.
	ms.txn = cc.env.NextTxn()
	cc.sendRequest(b, ms, true)
	if cc.cfg.Retry != nil {
		cc.armMissTimer(b, ms)
	}
}

// sendRequest builds and injects the miss request for ms, deriving the kind
// from the current cache state. It serves both the initial issue and
// hardened-protocol retransmissions (first distinguishes them so counters
// are not inflated by retries).
//
//dsi:hotpath
func (cc *CacheCtrl) sendRequest(b mem.Addr, ms *mshr, first bool) {
	kind := netsim.GetS
	var ver uint8
	var hasVer bool
	if ms.kind == opRead {
		ver, hasVer = cc.c.EchoVersion(b)
	} else {
		kind = netsim.GetX
		if f, ok := cc.c.Peek(b); ok && f.State == cache.Shared {
			kind = netsim.Upgrade
			ver, hasVer = f.Ver, f.HasVer
			if first {
				cc.stats.Upgrades++
			}
		} else {
			ver, hasVer = cc.c.EchoVersion(b)
		}
	}
	_, done := cc.server.Admit(cc.env.Q.Now(), CacheOccupancy)
	sc := cc.newSendCall()
	// At most four fields in the literal, so the compiler builds it in
	// place instead of copying it from a temporary.
	sc.msg = netsim.Message{Kind: kind, Dst: cc.home(b), Addr: b, Txn: ms.txn}
	sc.msg.Ver, sc.msg.HasVer = ver, hasVer
	cc.env.Q.AtCall(done, doSendCall, sc)
}

//dsi:hotpath
func (cc *CacheCtrl) newSendCall() *sendCall {
	if n := len(cc.sendFree); n > 0 {
		sc := cc.sendFree[n-1]
		cc.sendFree = cc.sendFree[:n-1]
		return sc
	}
	return &sendCall{cc: cc}
}

// install places an arriving block, emitting any displacement writeback.
//
//dsi:hotpath
func (cc *CacheCtrl) install(b mem.Addr, st cache.State, m *netsim.Message) {
	sk := cc.env.Sink
	var old cache.State
	if sk != nil {
		if f, ok := cc.c.Peek(b); ok {
			old = f.State
		}
	}
	fill := &cache.Fill{State: st, SI: m.SI, TearOff: m.TearOff, Ver: m.Ver, HasVer: m.HasVer, Data: m.Data}
	if ev, evicted := cc.c.Install(b, fill); evicted {
		if sk != nil {
			var fl uint8
			if ev.TearOff {
				fl = obs.FlagTearOff
			}
			sk.OnCacheState(cc.env.Q.Now(), cc.node, ev.Addr, 0, ev.State, cache.Invalid, fl)
		}
		cc.evictionMessage(ev)
	}
	if sk != nil {
		var fl uint8
		if m.SI {
			fl |= obs.FlagSI
		}
		if m.TearOff {
			fl |= obs.FlagTearOff
		}
		if m.HasVer {
			fl |= obs.FlagHasVer
		}
		sk.OnCacheState(cc.env.Q.Now(), cc.node, b, m.Txn, old, st, fl)
	}
	if m.SI {
		cc.stats.SIReceived++
		if m.TearOff {
			cc.stats.TearOffRecv++
		}
	}
	if m.TearOff && cc.cfg.Policy.SCTearOff {
		// At most one tear-off copy per cache under SC: displace the old
		// one (silently — it was never tracked).
		if cc.scTear != 0 && cc.scTear != b {
			ev, had := cc.c.Invalidate(cc.scTear)
			if sk != nil && had {
				sk.OnCacheState(cc.env.Q.Now(), cc.node, cc.scTear, 0, ev.State, cache.Invalid, obs.FlagTearOff)
			}
		}
		cc.scTear = b
	}
}

// postInstall applies cache-side identification and runs the DSI
// mechanism's install hook. It must run after the pending store/swap has
// been applied: a full FIFO may displace — and self-invalidate — the block
// that just arrived.
func (cc *CacheCtrl) postInstall(b mem.Addr, m *netsim.Message) {
	marked := m.SI
	// Cache-side identification (§3.1): mark locally if this block's
	// invalidation history crosses the threshold. The home-node exemption
	// applies here just as it does at the directory.
	if !marked && cc.home(b) != cc.node && cc.si.MarkLocal(cc.c, b) {
		cc.stats.CacheSideMarked++
		marked = true
	}
	if !marked {
		return
	}
	if ev, ok := cc.si.OnInstall(cc.c, b); ok {
		if sk := cc.env.Sink; sk != nil {
			sk.OnSelfInval(cc.env.Q.Now(), cc.node, ev.Addr, ev.State, ev.TearOff, true)
		}
		if !ev.TearOff {
			cc.notifySelfInval(ev)
		}
	}
}

// evictionMessage tells the home a displaced copy is gone: WB with data for
// Exclusive, a Repl hint for tracked Shared, silence for tear-off copies.
func (cc *CacheCtrl) evictionMessage(ev cache.Evicted) {
	if ev.TearOff {
		return
	}
	home := cc.home(ev.Addr)
	if ev.State == cache.Exclusive {
		cc.send(&netsim.Message{Kind: netsim.WB, Dst: home, Addr: ev.Addr, Data: ev.Data, SI: ev.SI})
		return
	}
	cc.send(&netsim.Message{Kind: netsim.Repl, Dst: home, Addr: ev.Addr, SI: ev.SI})
}

// notifySelfInval tells the home a tracked block self-invalidated.
func (cc *CacheCtrl) notifySelfInval(ev cache.Evicted) {
	home := cc.home(ev.Addr)
	cc.stats.SINotifies++
	if ev.State == cache.Exclusive {
		cc.send(&netsim.Message{Kind: netsim.SInvWB, Dst: home, Addr: ev.Addr, Data: ev.Data, SI: true})
		return
	}
	cc.send(&netsim.Message{Kind: netsim.SInvNotify, Dst: home, Addr: ev.Addr, SI: true})
}

// --- write buffer (weak consistency) ----------------------------------------

func (cc *CacheCtrl) bufferStore(ps pendingStore) {
	b := mem.BlockOf(ps.addr)
	now := cc.env.Q.Now()
	if e := cc.wbs.Get(mem.BlockIndex(b)); e != nil {
		if !e.dataArrived {
			// Coalesce into the outstanding entry.
			e.coalesce(ps.addr, ps.st)
			r := cc.result(now)
			r.Hit = true
			r.WBFullWait = now - ps.start
			ps.cont(r)
			return
		}
		// Data arrived but the block left the cache (otherwise the store
		// would have hit Exclusive); re-execute after the entry retires.
		e.blockedStores = append(e.blockedStores, ps)
		return
	}
	if cc.wbs.Len() >= cc.cfg.WriteBufferEntries {
		cc.stats.WBFullStalls++
		cc.stalled = append(cc.stalled, ps)
		return
	}
	cc.allocateEntry(b, ps)
}

func (cc *CacheCtrl) allocateEntry(b mem.Addr, ps pendingStore) {
	now := cc.env.Q.Now()
	var e *wbEntry
	if n := len(cc.wbFree); n > 0 {
		e = cc.wbFree[n-1] // zeroed by retire
		cc.wbFree = cc.wbFree[:n-1]
	} else {
		e = new(wbEntry)
	}
	e.addr = b
	e.coalesce(ps.addr, ps.st)
	cc.wbs.Put(mem.BlockIndex(b), e)
	cc.stats.WriteMisses++
	cc.issueMiss(b, cc.newMshr(missReq{kind: opWrite, addr: ps.addr, st: ps.st, start: ps.start}))
	r := cc.result(now)
	r.WBFullWait = now - ps.start
	ps.cont(r)
}

// retire frees a write-buffer slot and wakes anything waiting on it.
func (cc *CacheCtrl) retire(e *wbEntry) {
	cc.wbs.Delete(mem.BlockIndex(e.addr))
	blocked := e.blockedStores
	e.blockedStores = nil
	for _, ps := range blocked {
		cc.bufferStore(ps)
	}
	for len(cc.stalled) > 0 && cc.wbs.Len() < cc.cfg.WriteBufferEntries {
		ps := cc.stalled[0]
		cc.stalled = cc.stalled[1:]
		cc.bufferStore(ps)
	}
	if cc.WBEmpty() {
		waiters := cc.drain
		cc.drain = nil
		for _, w := range waiters {
			w()
		}
	}
	*e = wbEntry{}
	cc.wbFree = append(cc.wbFree, e)
}

// --- network-facing handlers -------------------------------------------------

// Handle dispatches one incoming coherence message bound for the cache. m is
// valid only for the call (see netsim.Handler).
//
//dsi:hotpath
func (cc *CacheCtrl) Handle(m *netsim.Message) {
	switch m.Kind {
	case netsim.Inv:
		cc.onInv(m)
	case netsim.Recall:
		cc.onRecall(m)
	case netsim.DataS:
		cc.onDataS(m)
	case netsim.DataX:
		cc.onDataX(m)
	case netsim.AckX:
		cc.onAckX(m)
	case netsim.FinalAck:
		cc.onFinalAck(m)
	case netsim.Nack:
		cc.onNack(m)
	default:
		// The fabric routes requests, acks, and drop notices to the home
		// directory; only grants, probes, and recall/invalidate traffic ever
		// target a cache.
		//dsi:unreachable not-routed — home-bound kinds never reach a cache
		cc.env.fail("cache %d: unexpected message %v", cc.node, *m)
	}
}

func (cc *CacheCtrl) onInv(m *netsim.Message) {
	cc.stats.InvsReceived++
	b := mem.BlockOf(m.Addr)
	cc.si.OnInvalidate(b)
	ev, had := cc.c.Invalidate(b)
	if sk := cc.env.Sink; sk != nil && had {
		sk.OnCacheState(cc.env.Q.Now(), cc.node, b, m.Txn, ev.State, cache.Invalid, 0)
	}
	// Acknowledge unconditionally: if the copy is gone, our replacement
	// notice is already FIFO-ordered ahead of this ack.
	if had && ev.State == cache.Exclusive {
		cc.send(&netsim.Message{Kind: netsim.InvAckData, Dst: m.Src, Addr: b, Data: ev.Data, Txn: m.Txn})
		return
	}
	if !had && cc.cfg.Retry != nil {
		// Hardened: a re-sent Inv found no copy (the real ack or drop
		// notice is FIFO-ordered ahead of this reply). Answer with the
		// negative ack so the taxonomy stays clean; the directory consumes
		// it like an InvAck.
		cc.stats.NackHomesSent++
		cc.send(&netsim.Message{Kind: netsim.NackHome, Dst: m.Src, Addr: b, Txn: m.Txn})
		return
	}
	cc.send(&netsim.Message{Kind: netsim.InvAck, Dst: m.Src, Addr: b, Txn: m.Txn})
}

func (cc *CacheCtrl) onRecall(m *netsim.Message) {
	cc.stats.RecallsRecv++
	b := mem.BlockOf(m.Addr)
	if data, ok := cc.c.Downgrade(b); ok {
		if sk := cc.env.Sink; sk != nil {
			sk.OnCacheState(cc.env.Q.Now(), cc.node, b, m.Txn, cache.Exclusive, cache.Shared, 0)
		}
		cc.send(&netsim.Message{Kind: netsim.RecallAck, Dst: m.Src, Addr: b, Data: data, Txn: m.Txn})
		return
	}
	// Copy already written back or self-invalidated; the data is on its way
	// to the home ahead of this ack.
	if cc.cfg.Retry != nil {
		if _, held := cc.c.Peek(b); !held {
			cc.stats.NackHomesSent++
			cc.send(&netsim.Message{Kind: netsim.NackHome, Dst: m.Src, Addr: b, Txn: m.Txn})
			return
		}
	}
	cc.send(&netsim.Message{Kind: netsim.InvAck, Dst: m.Src, Addr: b, Txn: m.Txn})
}

func (cc *CacheCtrl) onDataS(m *netsim.Message) {
	b := mem.BlockOf(m.Addr)
	idx := mem.BlockIndex(b)
	ms := cc.misses.Get(idx)
	if ms == nil || ms.kind != opRead || (cc.cfg.Retry != nil && ms.txn != m.Txn) {
		if cc.cfg.Retry != nil {
			// Hardened: a duplicated or replayed grant whose miss already
			// completed (the transaction id no longer matches any live
			// miss). Per-pair FIFO guarantees a fresh miss's real grant
			// cannot be overtaken by a stale one, so dropping is safe —
			// unless the grant came from a stale duplicated request served
			// as fresh: with no live state and no copy here, the directory
			// just recorded this node as a sharer, so return the phantom
			// copy with a replacement notice to keep the sharer set honest.
			if ms == nil && cc.wbs.Get(idx) == nil && !m.TearOff {
				if _, held := cc.c.Peek(b); !held {
					cc.stats.GrantsReturned++
					cc.send(&netsim.Message{Kind: netsim.Repl, Dst: cc.home(b), Addr: b})
					return
				}
			}
			cc.stats.StraysIgnored++
			return
		}
		cc.env.fail("cache %d: unexpected DataS for %#x", cc.node, uint64(b))
		return
	}
	cc.misses.Delete(idx)
	cc.install(b, cache.Shared, m)
	r := cc.result(cc.env.Q.Now())
	r.InvWait = m.InvWait
	r.Value = m.Data
	cc.finish(ms, r)
	cc.postInstall(b, m)
}

func (cc *CacheCtrl) onDataX(m *netsim.Message) {
	b := mem.BlockOf(m.Addr)
	idx := mem.BlockIndex(b)
	ms := cc.misses.Get(idx)
	hardened := cc.cfg.Retry != nil
	if ms == nil {
		if hardened {
			cc.recoverGrantReplay(b, m)
			return
		}
		cc.env.fail("cache %d: unexpected DataX for %#x", cc.node, uint64(b))
		return
	}
	if hardened && ms.txn != m.Txn {
		cc.stats.StraysIgnored++
		return
	}
	if ms.waitingFinal {
		// The grant was already consumed and the swap applied; installing
		// again would recompute OldWord from post-swap contents. Only a
		// replayed grant with Pending cleared — standing in for the lost
		// FinalAck — completes the operation here.
		if hardened && !m.Pending {
			cc.misses.Delete(idx)
			cc.finishParked(ms)
			return
		}
		if hardened {
			cc.stats.StraysIgnored++
			return
		}
		cc.env.fail("cache %d: duplicate DataX for %#x", cc.node, uint64(b))
		return
	}
	cc.misses.Delete(idx)
	cc.install(b, cache.Exclusive, m)
	if ms.kind == opRead {
		// A migratory exclusive grant answering a read: the block arrives
		// writable in anticipation of the upgrade this processor would
		// otherwise issue.
		r := cc.result(cc.env.Q.Now())
		r.InvWait = m.InvWait
		r.Value = m.Data
		cc.finish(ms, r)
	} else {
		cc.applyGrant(b, ms, m)
	}
	cc.postInstall(b, m)
}

func (cc *CacheCtrl) onAckX(m *netsim.Message) {
	b := mem.BlockOf(m.Addr)
	idx := mem.BlockIndex(b)
	ms := cc.misses.Get(idx)
	if ms == nil || ms.kind == opRead || ms.waitingFinal ||
		(cc.cfg.Retry != nil && ms.txn != m.Txn) {
		if cc.cfg.Retry != nil {
			// An upgrade grant from a stale duplicated request served as
			// fresh is refused like a DataX: the AckX carries the block's
			// committed contents as bookkeeping, so the give-back writeback
			// has the data it needs (see giveBackGrant).
			if ms == nil && cc.wbs.Get(idx) == nil {
				cc.giveBackGrant(b, m)
				return
			}
			cc.stats.StraysIgnored++
			return
		}
		cc.env.fail("cache %d: unexpected AckX for %#x", cc.node, uint64(b))
		return
	}
	cc.misses.Delete(idx)
	// The AckX carries the block's committed contents as simulator
	// bookkeeping (a tracked shared copy always equals home memory, so no
	// data moves on the simulated wire): even if the shared copy was
	// displaced while the upgrade was in flight — possible under WC, where
	// fills for other blocks arrive while stores are buffered — the install
	// below reconstructs it exactly.
	cc.install(b, cache.Exclusive, m)
	cc.applyGrant(b, ms, m)
	cc.postInstall(b, m)
}

// applyGrant performs the buffered store or swap once exclusive ownership
// arrives, and completes the processor operation (or parks it awaiting the
// weak-consistency FinalAck).
func (cc *CacheCtrl) applyGrant(b mem.Addr, ms *mshr, m *netsim.Message) {
	now := cc.env.Q.Now()
	f, ok := cc.c.Peek(b)
	if !ok {
		cc.env.fail("cache %d: granted block %#x not present", cc.node, uint64(b))
		return
	}
	switch ms.kind {
	case opRead:
		// Read grants install via onDataS and never carry a buffered store.
		cc.env.fail("cache %d: read grant routed to applyGrant for %#x", cc.node, uint64(b))
	case opWrite:
		if cc.cfg.Consistency == WC {
			// Carry the transaction identity (and timer generation, so the
			// retired miss timer goes stale) over to the entry: while
			// pendingFinal it owns the lost-FinalAck probe timer.
			txnID, gen := ms.txn, ms.tgen
			cc.freeMshr(ms)
			e := cc.wbs.Get(mem.BlockIndex(b))
			if e == nil {
				cc.env.fail("cache %d: WC write grant without wb entry for %#x", cc.node, uint64(b))
				return
			}
			e.apply(&f.Data)
			e.dataArrived = true
			waiters := e.readWaiters
			e.readWaiters = nil
			for _, w := range waiters {
				r := cc.result(now)
				r.WBRead = true
				r.Value = f.Data
				w(r)
			}
			if m.Pending {
				e.pendingFinal = true
				if cc.cfg.Retry != nil {
					e.txn, e.tgen, e.retries = txnID, gen, 0
					cc.armFinalTimer(b, e)
				}
			} else {
				cc.retire(e)
			}
			return
		}
		ms.st.MergeInto(&f.Data, ms.addr)
		r := cc.result(now)
		r.InvWait = m.InvWait
		cc.finish(ms, r)
	case opSwap:
		// Under WC the swap is a synchronization access: with Pending set,
		// completion waits for the directory's FinalAck, the result parked
		// in the MSHR.
		r := &ms.res
		if !m.Pending {
			r = cc.result(now)
		}
		r.InvWait = m.InvWait
		r.OldWord = f.Data.WordAt(ms.addr)
		r.Value = f.Data
		ms.st.MergeInto(&f.Data, ms.addr)
		if !m.Pending {
			cc.finish(ms, r)
			return
		}
		ms.waitingFinal = true
		cc.misses.Put(mem.BlockIndex(b), ms)
	}
}

func (cc *CacheCtrl) onFinalAck(m *netsim.Message) {
	b := mem.BlockOf(m.Addr)
	hardened := cc.cfg.Retry != nil
	idx := mem.BlockIndex(b)
	if e := cc.wbs.Get(idx); e != nil {
		if !e.pendingFinal || (hardened && e.txn != m.Txn) {
			if hardened {
				cc.stats.StraysIgnored++
				return
			}
			cc.env.fail("cache %d: FinalAck for unpending entry %#x", cc.node, uint64(b))
			return
		}
		cc.retire(e)
		return
	}
	if ms := cc.misses.Get(idx); ms != nil && ms.waitingFinal {
		if hardened && ms.txn != m.Txn {
			cc.stats.StraysIgnored++
			return
		}
		cc.misses.Delete(idx)
		cc.finishParked(ms)
		return
	}
	if hardened {
		// Duplicated FinalAck whose entry already retired.
		cc.stats.StraysIgnored++
		return
	}
	cc.env.fail("cache %d: stray FinalAck for %#x", cc.node, uint64(b))
}
