// Package cpu models the processors: a simple in-order core that issues
// loads, stores, swaps, compute delays, and synchronization operations
// against its node's cache controller, stalling according to the memory
// consistency model, and attributing every stalled cycle to the categories
// of the paper's Figure 3.
//
// Workload kernels are ordinary Go functions, each run on a coroutine
// (iter.Pull) while every event runs on the goroutine that drives the event
// queue. The event that completes a processor's operation resumes its
// kernel, which runs until it has issued its next operation and then yields
// back into that event (see resumeProc). Exactly one of them runs at any
// moment and control moves by coroutine switch, never through the Go
// scheduler, so simulations are deterministic as long as kernels do not
// mutate Go state shared between processors (read-only shared setup is
// fine).
package cpu

import (
	"errors"
	"fmt"
	"iter"
	"sync"

	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/proto"
	"dsisim/internal/rng"
	"dsisim/internal/stats"
)

// Kernel is the per-processor body of a workload. Kernels must not
// recover(): a kernel released mid-operation unwinds through a panic (see
// Proc.Release).
type Kernel func(p *Proc)

// opKind enumerates kernel→driver requests.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opSwap
	opCompute
	opBarrier
	opUnlock
	opFlush
	opHalt
)

type request struct {
	kind   opKind
	addr   mem.Addr
	word   uint64
	cycles int64
	sync   bool // charge stall time to the synchronization category
	// noFlush suppresses the self-invalidation flush after a swap: failed
	// spin-lock attempts are not treated as completed synchronization
	// points (the flush runs once, after the successful acquire).
	noFlush bool
}

// Value is what a kernel observes from a load or swap: the block's
// coherence token plus the data word at the accessed address.
type Value struct {
	Writer int
	Seq    uint64
	Word   uint64
}

type response struct {
	value Value
	old   uint64
	// stop releases a kernel the run left parked: the kernel unwinds
	// instead of resuming (see Release).
	stop bool
}

// errReleased is the panic value that unwinds a released kernel.
var errReleased = errors.New("cpu: kernel released")

// Proc is one simulated processor. Kernel-side methods (Read, Write, …)
// must only be called from the processor's own kernel; everything else
// belongs to the event loop.
type Proc struct {
	id int
	n  int

	q       *event.Queue
	cc      *proto.CacheCtrl
	barrier *Barrier
	brk     *stats.Breakdown
	rnd     *rng.RNG

	// co is the coroutine running this processor's kernel, from Start to
	// Release.
	co *coro

	seq  uint64 // store sequence for value tokens
	done bool
	halt event.Time
	err  error

	// In-order operation state: the core has at most one operation in
	// flight, so its continuation context lives here instead of in per-op
	// closures. r is the current request, start its issue time, resp the
	// response to deliver at the next resume, pending the response parked
	// across a trailing self-invalidation flush.
	r       request
	start   event.Time
	resp    response
	pending response

	// drained/arrived are the intermediate timestamps of the multi-stage
	// synchronization sequences (drain → access → flush → barrier).
	drained event.Time
	arrived event.Time

	// flushNext runs after the current self-invalidation flush completes.
	flushNext  func()
	flushStart event.Time

	// Continuations bound once at construction so issuing an operation
	// allocates nothing.
	contRead, contWrite, contSwap, contUnlockWrite func(proto.Result)
	contFlushed                                    func(proto.Result)
	contSwapDrained, contUnlockDrained             func()
	contBarrierDrained, contBarrierFlushed         func()
	contBarrierReleased, contFinishResp            func()
	contFlushFinish                                func()

	// SpinBackoffMax bounds the exponential backoff between lock retries.
	SpinBackoffMax int64

	// OnOp, if set, observes every operation the kernel issues, in program
	// order, before it executes. Used by the trace tooling.
	OnOp func(TraceOp)
}

// TraceOp is one kernel-issued operation as seen by a tracer.
type TraceOp struct {
	Kind   string // read write swap compute barrier unlock flush halt
	Addr   mem.Addr
	Word   uint64
	Cycles int64
	Sync   bool
}

var opNames = map[opKind]string{
	opRead: "read", opWrite: "write", opSwap: "swap", opCompute: "compute",
	opBarrier: "barrier", opUnlock: "unlock", opFlush: "flush", opHalt: "halt",
}

// New builds a processor. Start must be called to launch its kernel.
func New(id, n int, q *event.Queue, cc *proto.CacheCtrl, barrier *Barrier, brk *stats.Breakdown, seed uint64) *Proc {
	p := &Proc{
		id: id, n: n, q: q, cc: cc, barrier: barrier, brk: brk,
		rnd:            rng.New(seed ^ uint64(id)*0x9e3779b97f4a7c15),
		SpinBackoffMax: 256,
	}
	p.contRead = p.onRead
	p.contWrite = p.onWrite
	p.contSwap = p.onSwap
	p.contUnlockWrite = p.onUnlockWrite
	p.contFlushed = p.onFlushed
	p.contSwapDrained = p.onSwapDrained
	p.contUnlockDrained = p.onUnlockDrained
	p.contBarrierDrained = p.onBarrierDrained
	p.contBarrierFlushed = p.onBarrierFlushed
	p.contBarrierReleased = p.onBarrierReleased
	p.contFinishResp = p.finishResp
	p.contFlushFinish = p.onFlushFinish
	return p
}

// Reset returns a processor to its just-built state for machine reuse,
// keeping the continuation closures bound at construction. The queue, cache
// controller, barrier, and breakdown wiring persist; only the run state
// (RNG, store sequence, halt/err, in-flight operation context) is cleared.
// The previous run's kernel must have been released: Reset before Release
// would leave it holding a coroutine, so that is a hard error.
func (p *Proc) Reset(seed uint64) {
	if p.co != nil {
		panic("cpu: Reset of a processor whose kernel has not been released")
	}
	p.rnd.Reseed(seed ^ uint64(p.id)*0x9e3779b97f4a7c15)
	p.seq = 0
	p.done = false
	p.halt = 0
	p.err = nil
	p.r = request{}
	p.start = 0
	p.resp = response{}
	p.pending = response{}
	p.drained, p.arrived = 0, 0
	p.flushNext = nil
	p.flushStart = 0
	p.SpinBackoffMax = 256
	p.OnOp = nil
}

// ID returns the processor number.
func (p *Proc) ID() int { return p.id }

// N returns the machine's processor count.
func (p *Proc) N() int { return p.n }

// RNG returns the processor's private deterministic generator.
func (p *Proc) RNG() *rng.RNG { return p.rnd }

// Done reports whether the kernel has halted.
func (p *Proc) Done() bool { return p.done }

// HaltTime returns the simulated time the kernel halted.
func (p *Proc) HaltTime() event.Time { return p.halt }

// Err returns the kernel's panic error, if any.
func (p *Proc) Err() error { return p.err }

// Breakdown returns the processor's cycle attribution.
func (p *Proc) Breakdown() *stats.Breakdown { return p.brk }

// --- kernel-side API ---------------------------------------------------------

// rpc issues the operation, yields to the event loop, and returns the
// response the operation's completion resumed the kernel with.
func (p *Proc) rpc(r request) response {
	p.issue(r)
	p.co.yield(struct{}{})
	return p.resumed()
}

// resumed returns the response the kernel was resumed with, unwinding a
// released kernel instead.
func (p *Proc) resumed() response {
	if p.resp.stop {
		panic(errReleased)
	}
	return p.resp
}

// Read performs a load and returns the accessed word with its block's
// coherence token.
func (p *Proc) Read(a mem.Addr) Value {
	return p.rpc(request{kind: opRead, addr: a}).value
}

// Write performs a store of a fresh value token (Word = 0).
func (p *Proc) Write(a mem.Addr) {
	p.rpc(request{kind: opWrite, addr: a})
}

// WriteWord stores a fresh token carrying the given word (for flags).
func (p *Proc) WriteWord(a mem.Addr, w uint64) {
	p.rpc(request{kind: opWrite, addr: a, word: w})
}

// Swap atomically exchanges the block's word, returning the old word. It is
// a synchronization access: the write buffer drains first and marked blocks
// self-invalidate after.
func (p *Proc) Swap(a mem.Addr, w uint64) uint64 {
	return p.rpc(request{kind: opSwap, addr: a, word: w, sync: true}).old
}

// Compute advances the processor by the given number of cycles.
func (p *Proc) Compute(cycles int64) {
	if cycles < 0 {
		panic("cpu: negative compute")
	}
	if cycles == 0 {
		return
	}
	p.rpc(request{kind: opCompute, cycles: cycles})
}

// ComputeInstr charges instruction-count work at the 3-issue rate of the
// paper's SuperSPARC model.
func (p *Proc) ComputeInstr(instructions int64) {
	p.Compute((instructions + 2) / 3)
}

// ReadSync is Read with the stall charged to synchronization (spin loops).
func (p *Proc) ReadSync(a mem.Addr) Value {
	return p.rpc(request{kind: opRead, addr: a, sync: true}).value
}

// Lock acquires a spin lock with test&set plus exponential backoff. The
// acquire loop spins on the swap itself — not on a plain test read —
// because every swap is a synchronization access that self-invalidates
// marked blocks: a plain-read spin on a stale tear-off copy of the lock
// word would never observe the release (the forward-progress hazard §3.3
// of the paper describes).
func (p *Proc) Lock(a mem.Addr) {
	backoff := int64(8)
	for {
		if p.rpc(request{kind: opSwap, addr: a, word: 1, sync: true, noFlush: true}).old == 0 {
			p.rpc(request{kind: opFlush})
			return
		}
		p.rpc(request{kind: opCompute, cycles: backoff, sync: true})
		if backoff < p.SpinBackoffMax {
			backoff *= 2
		}
	}
}

// Unlock releases a lock. It is a synchronization access (the write buffer
// drains before the releasing store and marked blocks self-invalidate), so
// weak ordering holds for data protected by the lock.
func (p *Proc) Unlock(a mem.Addr) {
	p.rpc(request{kind: opUnlock, addr: a})
}

// Barrier joins the machine-wide hardware barrier.
func (p *Proc) Barrier() {
	p.rpc(request{kind: opBarrier})
}

// Assert aborts the kernel with a diagnostic if cond is false; the failure
// surfaces as a run error. Use it for workload-level data-flow checks.
//
//dsi:coldpath
func (p *Proc) Assert(cond bool, format string, args ...any) {
	if !cond {
		panic(fmt.Sprintf("proc %d assertion failed: %s", p.id, fmt.Sprintf(format, args...)))
	}
}

// --- processor runtime ---------------------------------------------------------

// coro is a kernel coroutine. Its loop runs one kernel per borrowing: the
// first next() after Start runs the kernel to its first operation, and each
// later next() resumes it. When the kernel has ended, the loop yields once
// more and waits, idle, for the next kernel a borrower hands it.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// p and k are the processor and kernel the coroutine runs, from Start
	// to Release.
	p *Proc
	k Kernel
}

func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run(c.k)
		yield(struct{}{})
	}
}

// idle holds the kernel coroutines no processor is using, for every machine
// in the process: package-level because a coroutine outlives the machine
// that last used it, and machines are often dropped without a final call
// (pools evict them, one-shot runs discard them). An idle coroutine is a
// goroutine parked in its loop's yield, so the list must keep it until the
// next borrower resumes it; sync.Pool cannot, since an entry the GC dropped
// would strand its goroutine for good. The list holds no simulation state
// and never more coroutines than the peak number of kernels running at
// once, so it needs no cap. Borrowing one allocates nothing; making one
// costs about a dozen allocations.
var idle struct {
	sync.Mutex
	coros []*coro
}

// borrow takes an idle coroutine, or makes one.
func borrow() *coro {
	idle.Lock()
	if n := len(idle.coros); n > 0 {
		c := idle.coros[n-1]
		idle.coros = idle.coros[:n-1]
		idle.Unlock()
		return c
	}
	idle.Unlock()
	c := &coro{}
	// An idle coroutine is resumed by its next borrower, never stopped.
	c.next, _ = iter.Pull(c.loop)
	return c
}

// Start borrows a coroutine for kernel k and schedules the processor's
// start event at the current simulation time; the start event runs the
// kernel up to its first operation. Release returns the coroutine.
func (p *Proc) Start(k Kernel) {
	c := borrow()
	c.p, c.k = p, k
	p.co = c
	p.resp = response{}
	p.q.AfterCall(0, resumeProc, p)
}

// Release ends the processor's part in a finished run and returns its
// coroutine to the idle list. A kernel the run left parked mid-operation (a
// deadlock, or an event budget that expired), or never started, is first
// resumed with a stop response: it unwinds without recording an error, and
// the processor keeps reporting Done() == false. Call Release once the
// event loop has stopped; the processor can then be Reset and reused.
func (p *Proc) Release() {
	c := p.co
	if c == nil {
		return
	}
	if !p.done {
		p.resp = response{stop: true}
		c.next()
	}
	p.co = nil
	c.p, c.k = nil, nil
	idle.Lock()
	idle.coros = append(idle.coros, c)
	idle.Unlock()
}

// run executes kernel k on the coroutine, from its start event until it
// returns or panics, and then marks the processor halted. A released kernel
// unwinds through errReleased instead and is left not done.
func (p *Proc) run(k Kernel) {
	defer func() {
		r := recover()
		if r == errReleased {
			return
		}
		if r != nil {
			p.err = fmt.Errorf("%v", r)
		}
		p.done = true
		p.halt = p.q.Now()
	}()
	p.resumed()
	k(p)
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: opNames[opHalt]})
	}
}

// resumeProc is the static typed-event action every operation completion
// funnels through. It switches to the processor's kernel coroutine, which
// takes its response, runs until it has issued its next operation (or
// halted), and switches back, so the kernel issues inside this event.
//
//dsi:hotpath
func resumeProc(arg any) {
	arg.(*Proc).co.next()
}

// issue starts executing the kernel's operation at the current simulated
// time. Runs on the kernel's coroutine inside the event that resumed it.
func (p *Proc) issue(r request) {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: opNames[r.kind], Addr: r.addr, Word: r.word, Cycles: r.cycles, Sync: r.sync})
	}
	p.r = r
	p.start = p.q.Now()
	switch r.kind {
	case opCompute:
		cat := stats.Compute
		if r.sync {
			cat = stats.Sync
		}
		p.brk.Add(cat, r.cycles)
		p.resp = response{}
		p.q.AfterCall(event.Time(r.cycles), resumeProc, p)
	case opRead:
		p.cc.Read(r.addr, p.contRead)
	case opWrite:
		p.cc.Write(r.addr, p.token(r.word), p.contWrite)
	case opSwap:
		p.cc.DrainWB(p.contSwapDrained)
	case opUnlock:
		p.cc.DrainWB(p.contUnlockDrained)
	case opFlush:
		p.flushThen(p.contFlushFinish)
	case opBarrier:
		p.cc.DrainWB(p.contBarrierDrained)
	case opHalt:
		panic("cpu: halt is not an issued operation")
	}
}

// finish charges one issue cycle, replies to the kernel, and continues.
func (p *Proc) finish(resp response) {
	p.brk.Add(stats.Compute, 1)
	p.resp = resp
	p.q.AfterCall(1, resumeProc, p)
}

// finishResp finishes with the response parked across a flush.
func (p *Proc) finishResp() { p.finish(p.pending) }

// onFlushFinish completes a standalone flush request.
func (p *Proc) onFlushFinish() { p.finish(response{}) }

func (p *Proc) chargeRead(start event.Time, res proto.Result, sync bool) {
	stall := int64(res.Done - start)
	switch {
	case sync:
		p.brk.Add(stats.Sync, stall)
	case res.WBRead:
		p.brk.Add(stats.ReadWB, stall)
	default:
		inv := int64(res.InvWait)
		if inv > stall {
			inv = stall
		}
		p.brk.Add(stats.ReadInval, inv)
		p.brk.Add(stats.ReadOther, stall-inv)
	}
}

// onRead completes a load (contRead).
func (p *Proc) onRead(res proto.Result) {
	p.chargeRead(p.start, res, p.r.sync)
	p.finish(response{value: loaded(res.Value, p.r.addr)})
}

// loaded projects block contents onto the kernel-visible Value.
func loaded(v mem.Value, a mem.Addr) Value {
	return Value{Writer: v.Writer, Seq: v.Seq, Word: v.WordAt(a)}
}

func (p *Proc) token(word uint64) proto.Store {
	p.seq++
	return proto.Store{Writer: p.id, Seq: p.seq, Word: word}
}

// onWrite completes a store (contWrite).
func (p *Proc) onWrite(res proto.Result) {
	stall := int64(res.Done - p.start)
	switch {
	case p.r.sync:
		p.brk.Add(stats.Sync, stall)
	default:
		full := int64(res.WBFullWait)
		if full > stall {
			full = stall
		}
		inv := int64(res.InvWait)
		if inv > stall-full {
			inv = stall - full
		}
		p.brk.Add(stats.WBFull, full)
		p.brk.Add(stats.WriteInval, inv)
		p.brk.Add(stats.WriteOther, stall-full-inv)
	}
	p.finish(response{})
}

// onSwapDrained continues a swap once the write buffer has drained — the
// full synchronization-access sequence is drain, swap, self-invalidate.
func (p *Proc) onSwapDrained() {
	drained := p.q.Now()
	p.brk.Add(stats.SyncWB, int64(drained-p.start))
	p.drained = drained
	p.cc.Swap(p.r.addr, p.r.word, p.token(p.r.word), p.contSwap)
}

// onSwap completes the swap access and runs the trailing flush (contSwap).
func (p *Proc) onSwap(res proto.Result) {
	if p.r.sync {
		p.brk.Add(stats.Sync, int64(res.Done-p.drained))
	} else {
		inv := int64(res.InvWait)
		stall := int64(res.Done - p.drained)
		if inv > stall {
			inv = stall
		}
		p.brk.Add(stats.WriteInval, inv)
		p.brk.Add(stats.WriteOther, stall-inv)
	}
	p.pending = response{old: res.OldWord, value: loaded(res.Value, p.r.addr)}
	if p.r.noFlush {
		p.finishResp()
	} else {
		p.flushThen(p.contFinishResp)
	}
}

// onUnlockDrained issues the releasing store once the buffer has drained.
func (p *Proc) onUnlockDrained() {
	drained := p.q.Now()
	p.brk.Add(stats.SyncWB, int64(drained-p.start))
	p.drained = drained
	p.cc.Write(p.r.addr, p.token(0), p.contUnlockWrite)
}

// onUnlockWrite completes the releasing store and flushes (contUnlockWrite).
func (p *Proc) onUnlockWrite(res proto.Result) {
	p.brk.Add(stats.Sync, int64(res.Done-p.drained))
	p.flushThen(p.contFlushFinish)
}

// onBarrierDrained flushes marked blocks before joining the barrier.
func (p *Proc) onBarrierDrained() {
	drained := p.q.Now()
	p.brk.Add(stats.SyncWB, int64(drained-p.start))
	p.flushThen(p.contBarrierFlushed)
}

// onBarrierFlushed parks the processor at the hardware barrier.
func (p *Proc) onBarrierFlushed() {
	p.arrived = p.q.Now()
	p.barrier.Arrive(p.contBarrierReleased)
}

// onBarrierReleased charges the barrier wait and resumes the kernel.
func (p *Proc) onBarrierReleased() {
	p.brk.Add(stats.Sync, int64(p.q.Now()-p.arrived))
	p.finish(response{})
}

// flushThen runs the DSI self-invalidation flush and charges its latency.
func (p *Proc) flushThen(cont func()) {
	p.flushStart = p.q.Now()
	p.flushNext = cont
	p.cc.SyncFlush(p.contFlushed)
}

// onFlushed charges the flush stall and continues (contFlushed).
func (p *Proc) onFlushed(res proto.Result) {
	p.brk.Add(stats.DSIStall, int64(res.Done-p.flushStart))
	next := p.flushNext
	p.flushNext = nil
	next()
}

// --- hardware barrier ---------------------------------------------------------

// Barrier is the machine-wide hardware barrier: all processors are released
// a fixed latency after the last arrival (100 cycles in the paper).
type Barrier struct {
	q       *event.Queue
	n       int
	latency event.Time
	waiting []func()
	// Episodes counts completed barrier episodes.
	Episodes int64
	// OnRelease, if set, runs at each release time with the episode number
	// (1-based). The machine uses it to end workload warm-up: statistics
	// are snapshotted when the declared number of initialization barriers
	// has completed.
	OnRelease func(episode int64)
}

// NewBarrier builds a barrier for n processors.
func NewBarrier(q *event.Queue, n int, latency event.Time) *Barrier {
	return &Barrier{q: q, n: n, latency: latency}
}

// Arrive registers a processor; cont runs at release time.
func (b *Barrier) Arrive(cont func()) {
	b.waiting = append(b.waiting, cont)
	if len(b.waiting) < b.n {
		return
	}
	ws := b.waiting
	// Keep the backing array: re-arrivals append only after the release
	// events run, so the next episode reuses it allocation-free.
	b.waiting = b.waiting[:0]
	b.Episodes++
	ep := b.Episodes
	release := b.q.Now() + b.latency
	if hook := b.OnRelease; hook != nil {
		b.q.At(release, func() { hook(ep) })
	}
	for _, w := range ws {
		b.q.At(release, w)
	}
}

// Waiting returns how many processors are currently parked at the barrier.
func (b *Barrier) Waiting() int { return len(b.waiting) }

// Reset clears all barrier state (parked processors, the episode counter,
// the release hook) and installs a new latency, for machine reuse.
func (b *Barrier) Reset(latency event.Time) {
	clear(b.waiting)
	b.waiting = b.waiting[:0]
	b.Episodes = 0
	b.OnRelease = nil
	b.latency = latency
}
