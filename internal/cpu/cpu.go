// Package cpu models the processors: a simple in-order core that issues
// loads, stores, swaps, compute delays, and synchronization operations
// against its node's cache controller, stalling according to the memory
// consistency model, and attributing every stalled cycle to the categories
// of the paper's Figure 3.
//
// Workload kernels are ordinary Go functions run on one goroutine per
// simulated processor, scheduled cooperatively: exactly one goroutine — the
// current "conch holder" — executes events at any moment, and the conch
// moves between goroutines only when an event resumes a different
// processor's kernel (see Driver). A kernel blocks inside each Proc method
// while the simulator advances; execution is fully serialized through the
// conch handoff, so simulations are deterministic as long as kernels do not
// mutate Go state shared between processors (read-only shared setup is
// fine).
package cpu

import (
	"fmt"
	"runtime"

	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/proto"
	"dsisim/internal/rng"
	"dsisim/internal/stats"
)

// Kernel is the per-processor body of a workload.
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
	// stop releases a kernel the run left parked: the kernel goroutine
	// unwinds and exits instead of resuming (see Stop).
	stop bool
}

// Proc is one simulated processor. Kernel-side methods (Read, Write, …)
// must only be called from the kernel goroutine; everything else belongs to
// the driver.
type Proc struct {
	id int
	n  int

	q       *event.Queue
	cc      *proto.CacheCtrl
	barrier *Barrier
	brk     *stats.Breakdown
	rnd     *rng.RNG
	drv     *Driver

	// res carries the conch into this processor's kernel goroutine: the
	// initial start gate and every cross-processor resume arrive here. A
	// self-resume (this processor's own drive loop executes its resume event)
	// uses the respReady flag instead and costs no channel operation at all —
	// the structural win over the old per-op request/response handshake.
	res chan response
	// respReady: this processor's response is in resp (set only while it
	// holds the conch). lostConch: the conch was handed to another goroutine
	// mid-event; stop driving. Both fields are only ever written by the
	// goroutine that currently holds the conch, which for these flags is the
	// owning goroutine itself (see resumeProc), so they need no atomics.
	respReady bool
	lostConch bool
	// gone receives one token when the kernel goroutine exits; see Join.
	// Allocated once at construction and reused across runs (Join consumes
	// the token), keeping Start allocation-free. live is set from Start to
	// Join, while the kernel goroutine may still run.
	gone chan struct{}
	live bool

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
		res:            make(chan response),
		gone:           make(chan struct{}, 1),
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
// keeping the channels and the continuation closures bound at construction.
// The queue, cache controller, barrier, and breakdown wiring persist; only
// the run state (RNG, store sequence, halt/err, in-flight operation context)
// is cleared. The previous run's kernel goroutine must have exited: Reset
// before Join would race with it, so that is a hard error.
func (p *Proc) Reset(seed uint64) {
	if p.live {
		panic("cpu: Reset of a processor whose kernel has not been joined")
	}
	p.rnd.Reseed(seed ^ uint64(p.id)*0x9e3779b97f4a7c15)
	p.respReady = false
	p.lostConch = false
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

// --- cooperative driver --------------------------------------------------------

// Driver owns one machine's event-loop run. Exactly one goroutine at a time
// — the conch holder — executes events: initially the goroutine that calls
// Run ("main"), and after the per-processor start events fire, whichever
// kernel goroutine an event most recently resumed. A kernel that issues an
// operation drives the queue itself until its own response is ready
// (respReady, no channel traffic) or until an event resumes a different
// processor, at which point the conch moves with a single channel send and
// the loser parks. Compared to the previous design — every operation
// crossing two unbuffered channels into a central loop — this removes all
// scheduler traffic from self-resumes and halves it for handoffs, without
// changing the event stream: operations are issued at exactly the same
// (time, seq) positions the central loop issued them at.
//
// Every field is only accessed by the current conch holder; the handoff
// channel sends establish the happens-before edges that make that sound
// under the race detector.
type Driver struct {
	q      *event.Queue
	max    uint64
	budget uint64

	// cur is the processor holding the conch; nil means main (the Run
	// caller). mainLost tells main's drive loop the conch moved on.
	cur      *Proc
	mainLost bool

	// done receives the run outcome (drained vs budget expired) from
	// whichever holder stops driving; buffered so main can finish its own
	// drive loop before receiving.
	done chan bool
}

// NewDriver builds a driver for q. Reset arms it for a run.
func NewDriver(q *event.Queue) *Driver {
	return &Driver{q: q, done: make(chan bool, 1)}
}

// Reset arms the driver for one run with an event budget (the livelock
// watchdog). A driver is reusable: each run consumes exactly one done
// notification.
func (d *Driver) Reset(budget uint64) {
	d.max, d.budget = budget, budget
	d.cur = nil
	d.mainLost = false
}

// step executes one event within the budget. It returns false when driving
// must stop for good — the queue drained or the budget expired — in which
// case the outcome has been posted and the conch dies with this holder.
//
//dsi:hotpath
func (d *Driver) step() bool {
	if d.budget == 0 {
		d.done <- false
		return false
	}
	// Decrement before dispatch: the event may hand the conch to another
	// goroutine mid-Step, and every driver access after the handoff send
	// belongs to the new holder. An empty queue refunds the charge (no
	// event ran, so no handoff happened and the refund is still private).
	d.budget--
	if !d.q.Step() {
		d.budget++
		d.cur = nil
		d.done <- true
		return false
	}
	return true
}

// Run drives the queue from the calling goroutine until the conch is handed
// to a kernel goroutine, then blocks until the run completes. It returns the
// number of events executed and whether the queue drained (false: the budget
// expired with events still pending).
func (d *Driver) Run() (steps uint64, drained bool) {
	for {
		if d.mainLost {
			d.mainLost = false
			break
		}
		if !d.step() {
			break
		}
	}
	drained = <-d.done
	return d.max - d.budget, drained
}

// --- kernel-side API ---------------------------------------------------------

// rpc issues the operation and drives the event loop until this processor's
// response is ready or the conch moves to another goroutine. Called on the
// kernel goroutine, which holds the conch whenever kernel code runs.
func (p *Proc) rpc(r request) response {
	p.issue(r)
	d := p.drv
	for {
		if p.respReady {
			p.respReady = false
			return p.resp
		}
		if p.lostConch {
			// Another processor's kernel drives now; park until an event
			// resumes us (the response rides the handoff).
			p.lostConch = false
			return p.park()
		}
		if !d.step() {
			// The run is over (drained or budget expired) with this kernel
			// still blocked mid-operation. Park until Stop releases it: the
			// machine observes Done() == false and reports the deadlock.
			return p.park()
		}
	}
}

// park blocks the kernel goroutine until the conch or a stop response
// arrives. A stop unwinds the goroutine through runtime.Goexit, which runs
// the kernel's deferred calls but is not a panic, so no error is recorded
// and the drive loop never runs again.
func (p *Proc) park() response {
	r := <-p.res
	if r.stop {
		runtime.Goexit()
	}
	return r
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

// --- driver side -------------------------------------------------------------

// Bind attaches the processor to the run's driver. The machine binds every
// processor before starting kernels; a pooled processor is re-bound each
// run.
func (p *Proc) Bind(d *Driver) {
	p.drv = d
	p.respReady = false
	p.lostConch = false
}

// Start launches the kernel goroutine and schedules the processor's start
// event at the current simulation time. The goroutine parks on the conch
// gate immediately; the start event hands it the conch with an empty
// response, exactly where the old design issued the kernel's first
// operation.
func (p *Proc) Start(k Kernel) {
	select {
	case <-p.gone: // drop a stale token from an unjoined previous run
	default:
	}
	p.live = true
	go func() {
		defer func() { p.gone <- struct{}{} }()
		p.park() // conch gate
		func() {
			defer func() {
				if r := recover(); r != nil {
					p.err = fmt.Errorf("%v", r)
				}
			}()
			k(p)
		}()
		p.haltDrain()
	}()
	p.resp = response{}
	p.q.AfterCall(0, resumeProc, p)
}

// Join blocks until the kernel goroutine launched by Start has fully
// exited. A halted processor's goroutine may still be unwinding its drive
// loop (reading lostConch) for a few instructions after the run's outcome
// is posted; the next run's Reset would race with that read. The machine
// joins every processor before reusing it. A kernel that has not halted is
// parked until Stop releases it, so Stop it before joining.
func (p *Proc) Join() {
	<-p.gone
	p.live = false
}

// Stop releases a kernel that the finished run left parked mid-operation
// (a deadlock, or an event budget that expired). Its goroutine unwinds out
// of the kernel without recording an error or driving events, and the
// processor keeps reporting Done() == false. Call Stop only after
// Driver.Run has returned, for a processor that has not halted, then Join
// it; the processor can then be Reset and reused.
func (p *Proc) Stop() {
	p.res <- response{stop: true}
}

// resumeProc is the static typed-event action every operation completion
// funnels through. Executed by the current conch holder: a self-resume just
// flags the response ready; resuming any other processor hands the conch
// over with a single channel send (the holder's drive loop then stops via
// lostConch/mainLost, set before the send so no queue state is touched
// after it).
//
//dsi:hotpath
func resumeProc(arg any) {
	p := arg.(*Proc)
	d := p.drv
	h := d.cur
	if h == p {
		p.respReady = true
		return
	}
	d.cur = p
	if h != nil {
		h.lostConch = true
	} else {
		d.mainLost = true
	}
	p.res <- p.resp
}

// issue starts executing the kernel's operation at the current simulated
// time. Runs on the kernel goroutine while it holds the conch — the same
// stream position the old central loop issued from.
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

// haltDrain marks the kernel halted and keeps driving the event loop until
// the conch moves on or the run ends — a halted processor cannot abandon the
// conch, or the simulation would stall with events pending. Runs on the
// kernel goroutine after the kernel function returns; the goroutine exits
// when this returns.
func (p *Proc) haltDrain() {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: opNames[opHalt]})
	}
	p.done = true
	p.halt = p.q.Now()
	d := p.drv
	for {
		if p.lostConch {
			p.lostConch = false
			return
		}
		if !d.step() {
			return
		}
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
