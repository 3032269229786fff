// Package cpu models the processors: a simple in-order core that issues
// loads, stores, swaps, compute delays, and synchronization operations
// against its node's cache controller, stalling according to the memory
// consistency model, and attributing every stalled cycle to the categories
// of the paper's Figure 3.
//
// Workload kernels are ordinary Go functions, each run on a coroutine
// (iter.Pull) while every event runs on the goroutine that drives the event
// queue. Exactly one of them runs at any moment and control moves by
// coroutine switch, never through the Go scheduler.
//
// A kernel posts its simple operations (loads whose value it does not use
// or only compares, stores and compute delays: Touch, Expect, Write,
// WriteWord, Compute) and runs on. The processor holds at most one simple
// operation in flight and queues the posted ones behind it, in program
// order. An operation completes through resumeProc, which charges its stall
// and issues the next posted operation inside the same event, at the
// simulated time the in-order core would have issued it, so posting moves no
// simulated number. The kernel parks, and is switched back into only once
// every operation it posted has retired, at:
//
//   - a load whose value it uses (Read, ReadSync);
//   - a synchronization operation (Swap, Lock, Unlock, Barrier), which then
//     runs as a straight line of steps on the kernel's coroutine: drain the
//     write buffer, perform the access, self-invalidate the marked blocks
//     (§4.2). An intermediate step switches straight back into the kernel,
//     which issues the next step inside the completing event; a step that
//     completes inside the call that issued it (a hit, an SC or empty drain)
//     lets the kernel go on without yielding. The last step charges the
//     issue cycle and resumes the kernel one cycle later;
//   - a post into a full FIFO (postedMax operations queued);
//   - its return, or its failure: a kernel that ends with operations posted
//     halts when the last of them retires.
//
// A kernel's Go code therefore runs ahead of simulated time, up to its next
// parking point. Simulations stay deterministic as long as kernels do not
// mutate Go state shared between processors (read-only shared setup is
// fine).
//
// Expect is a posted load whose word must equal the one the kernel expects.
// resumeProc compares the word when the load retires. On a mismatch it drops
// the operations posted behind the load, which never issue, and switches
// into the kernel, which unwinds from its parking point with the failure;
// the processor halts at the load's retire time, exactly where a Read
// followed by a guarded Failf with the same text would have halted it. OnOp
// has already seen the dropped operations, since it sees each operation when
// the kernel posts it.
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

// Value is what a kernel observes from a load or swap: the block's
// coherence token plus the data word at the accessed address.
type Value struct {
	Writer int
	Seq    uint64
	Word   uint64
}

// spinBackoffMax bounds the exponential backoff between lock retries.
const spinBackoffMax = 256

// postedMax bounds the simple operations a kernel may post behind the one in
// flight. A kernel that fills the FIFO parks until it empties, so the bound
// trades one extra switch per postedMax+1 operations against the FIFO's
// memory and how far a kernel's Go code runs ahead of simulated time: at 64
// a long run of stores or compute delays switches less than twice per
// hundred operations, and the FIFO is 3 KiB per processor.
const postedMax = 64

// errReleased is the panic value that unwinds a released kernel.
var errReleased = errors.New("cpu: kernel released")

// opKind is the kind of a simple operation: one a kernel posts and
// resumeProc issues and retires.
type opKind uint8

const (
	opNone    opKind = iota // no simple operation in flight
	opRead                  // a load (Read, ReadSync, Touch)
	opWrite                 // a store (Write, WriteWord)
	opCompute               // a compute delay (Compute, a lock's backoff)
)

// simpleOp is one posted simple operation. The kernel writes it straight
// into its FIFO slot (see slot and post), never through a copy.
type simpleOp struct {
	kind opKind
	// sync charges a load's stall, or a compute delay, to synchronization
	// (ReadSync, a lock's backoff).
	sync bool
	// check marks a load whose word must equal st.Word (Expect).
	check bool
	// touch marks a load whose value nobody reads (Touch), so a hit need
	// not copy the block out of the cache.
	touch bool
	addr  mem.Addr
	// st is a store's token, drawn when it is posted; a checked load keeps
	// the word it expects in st.Word.
	st     proto.Store
	cycles int64 // a compute delay's length
}

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

	// The core has at most one step in flight. res is the processor's own
	// result slot, lent to the cache controller (see New): every completion
	// writes the step's result there, where resumeProc retires a simple
	// operation and the kernel reads the pointer waitLast or waitStep
	// returns. ready marks an intermediate step that completed inside the
	// call that issued it, waiting a kernel parked on an intermediate step,
	// and stop a kernel released while parked (see Release).
	res     proto.Result
	ready   bool
	waiting bool
	stop    bool

	// cur is the simple operation in flight (kind opNone when none is, as
	// while a synchronization operation runs its steps), issued at curStart.
	// posted, last in the struct so that it keeps the other fields close
	// together, holds the simple operations queued behind cur: npost of
	// them, in a ring from head.
	cur         simpleOp
	curStart    event.Time
	head, npost int

	// The step completions, bound once at construction so issuing a step
	// allocates nothing: step and stepRes end an intermediate step, last and
	// lastRes an operation's last step.
	step, last       func()
	stepRes, lastRes func(*proto.Result)

	// OnOp, if set, observes every operation the kernel issues, in program
	// order, when the kernel posts or starts it. Used by the trace tooling.
	OnOp func(TraceOp)

	posted [postedMax]simpleOp
}

// TraceOp is one kernel-issued operation as seen by a tracer.
type TraceOp struct {
	Kind   string // read write swap compute barrier unlock flush halt
	Addr   mem.Addr
	Word   uint64
	Cycles int64
	Sync   bool
}

// New builds a processor and lends its result slot to cc, whose
// completions then write results straight into it. Start must be called to
// launch its kernel.
func New(id, n int, q *event.Queue, cc *proto.CacheCtrl, barrier *Barrier, brk *stats.Breakdown, seed uint64) *Proc {
	p := &Proc{
		id: id, n: n, q: q, cc: cc, barrier: barrier, brk: brk,
		rnd: rng.New(seed ^ uint64(id)*0x9e3779b97f4a7c15),
	}
	cc.CompleteInto(&p.res)
	p.step, p.stepRes = p.stepDoneNow, p.stepDone
	p.last, p.lastRes = p.lastDoneNow, p.lastDone
	return p
}

// Reset returns a processor to its just-built state for machine reuse,
// keeping the completions bound at construction. The queue, cache
// controller, barrier, and breakdown wiring persist; only the run state
// (RNG, store sequence, halt/err, step state, posted operations) is cleared.
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
	p.res = proto.Result{}
	p.ready, p.waiting, p.stop = false, false, false
	p.dropPosted()
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

// Err returns the kernel's failure, if any: its panic, or the first of its
// Expect loads that read a word other than the one expected.
func (p *Proc) Err() error { return p.err }

// Breakdown returns the processor's cycle attribution.
func (p *Proc) Breakdown() *stats.Breakdown { return p.brk }

// --- kernel-side API ---------------------------------------------------------

// Read performs a load and returns the accessed word with its block's
// coherence token. The kernel parks until the load retires.
func (p *Proc) Read(a mem.Addr) Value { return p.read(a, false) }

// ReadSync is Read with the stall charged to synchronization (spin loops).
func (p *Proc) ReadSync(a mem.Addr) Value { return p.read(a, true) }

// read posts a load and parks until it retires.
//
//dsi:hotpath
func (p *Proc) read(a mem.Addr, sync bool) Value {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "read", Addr: a, Sync: sync})
	}
	op := p.slot()
	*op = simpleOp{kind: opRead, sync: sync, addr: a}
	p.post(op)
	p.settle()
	v := &p.res.Value
	return Value{Writer: v.Writer, Seq: v.Seq, Word: v.WordAt(a)}
}

// Touch performs a load whose value the kernel does not use, charged
// exactly like Read. It posts the load and returns at once.
//
//dsi:hotpath
func (p *Proc) Touch(a mem.Addr) {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "read", Addr: a})
	}
	op := p.slot()
	*op = simpleOp{kind: opRead, touch: true, addr: a}
	p.post(op)
}

// Expect performs a load whose word must equal want, charged exactly like
// Read. It posts the load and returns at once; resumeProc compares the word
// when the load retires. A mismatch fails the kernel with
// "proc N assertion failed: load of 0x… word X, want Y" (see the package
// comment).
//
//dsi:hotpath
func (p *Proc) Expect(a mem.Addr, want uint64) {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "read", Addr: a})
	}
	op := p.slot()
	*op = simpleOp{kind: opRead, check: true, addr: a, st: proto.Store{Word: want}}
	p.post(op)
}

// Write performs a store of a fresh value token (Word = 0).
func (p *Proc) Write(a mem.Addr) { p.WriteWord(a, 0) }

// WriteWord stores a fresh token carrying the given word (for flags). It
// posts the store and returns at once.
//
//dsi:hotpath
func (p *Proc) WriteWord(a mem.Addr, w uint64) {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "write", Addr: a, Word: w})
	}
	op := p.slot()
	// The token goes in after the literal: a literal holding it is built
	// on the stack and then copied into the slot.
	*op = simpleOp{kind: opWrite, addr: a}
	op.st = p.token(w)
	p.post(op)
}

// Swap atomically exchanges the block's word, returning the old word. It is
// a synchronization access: drain, swap, then self-invalidation.
func (p *Proc) Swap(a mem.Addr, w uint64) uint64 {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "swap", Addr: a, Word: w, Sync: true})
	}
	p.settle()
	p.drain()
	drained := p.q.Now()
	p.cc.Swap(a, w, p.token(w), p.stepRes)
	res := p.waitStep()
	p.brk.Add(stats.Sync, int64(res.Done-drained))
	old := res.OldWord // the self-invalidation step reuses the result slot
	p.selfInvalidate()
	return old
}

// Compute advances the processor by the given number of cycles. It posts
// the delay and returns at once.
func (p *Proc) Compute(cycles int64) {
	if cycles < 0 {
		panic("cpu: negative compute")
	}
	if cycles > 0 {
		p.compute(cycles, false)
	}
}

// compute posts a compute delay, charged to synchronization for a lock's
// backoff.
//
//dsi:hotpath
func (p *Proc) compute(cycles int64, sync bool) {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "compute", Cycles: cycles, Sync: sync})
	}
	op := p.slot()
	*op = simpleOp{kind: opCompute, sync: sync, cycles: cycles}
	p.post(op)
}

// Lock acquires a spin lock with test&set plus exponential backoff. The
// acquire loop spins on the swap itself — not on a plain test read —
// because every swap is a synchronization access that self-invalidates
// marked blocks: a plain-read spin on a stale tear-off copy of the lock
// word would never observe the release (the forward-progress hazard §3.3
// of the paper describes).
//
// Each attempt is its own swap operation, drain then swap, followed by a
// posted backoff compute while the word is taken, which the next attempt
// waits out. A failed attempt is not a completed synchronization point, so
// the self-invalidation runs once, as a flush operation after the acquire.
func (p *Proc) Lock(a mem.Addr) {
	backoff := int64(8)
	for {
		if p.OnOp != nil {
			p.OnOp(TraceOp{Kind: "swap", Addr: a, Word: 1, Sync: true})
		}
		p.settle()
		p.drain()
		drained := p.q.Now()
		p.cc.Swap(a, 1, p.token(1), p.lastRes)
		res := p.waitLast()
		p.brk.Add(stats.Sync, int64(res.Done-drained))
		if res.OldWord == 0 {
			break
		}
		p.compute(backoff, true)
		if backoff < spinBackoffMax {
			backoff *= 2
		}
	}
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "flush"})
	}
	p.selfInvalidate()
}

// Unlock releases a lock. It is a synchronization access (drain, the
// releasing store, then self-invalidation), so weak ordering holds for data
// protected by the lock.
func (p *Proc) Unlock(a mem.Addr) {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "unlock", Addr: a})
	}
	p.settle()
	p.drain()
	drained := p.q.Now()
	p.cc.Write(a, p.token(0), p.stepRes)
	p.brk.Add(stats.Sync, int64(p.waitStep().Done-drained))
	p.selfInvalidate()
}

// Barrier joins the machine-wide hardware barrier: drain, self-invalidation,
// then the arrival, which the barrier's release completes.
func (p *Proc) Barrier() {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "barrier"})
	}
	p.settle()
	p.drain()
	start := p.q.Now()
	p.cc.SyncFlush(p.stepRes)
	p.brk.Add(stats.DSIStall, int64(p.waitStep().Done-start))
	arrived := p.q.Now()
	p.barrier.Arrive(p.last)
	p.brk.Add(stats.Sync, int64(p.waitLast().Done-arrived))
}

// Failf aborts the kernel with a diagnostic; the failure surfaces as a run
// error. Guard it with the check it reports, as in
// `if v.Word > max { p.Failf(...) }`, so that its arguments are boxed only
// when the check fails. A load whose word must equal a known one is an
// Expect, which needs no Failf.
//
//dsi:coldpath
func (p *Proc) Failf(format string, args ...any) {
	panic(fmt.Sprintf("proc %d assertion failed: %s", p.id, fmt.Sprintf(format, args...)))
}

// drain is a synchronization access's first step: it waits for every
// buffered write to be acknowledged, charging the wait to sync-wb.
func (p *Proc) drain() {
	start := p.q.Now()
	p.cc.DrainWB(p.step)
	p.brk.Add(stats.SyncWB, int64(p.waitStep().Done-start))
}

// selfInvalidate is a synchronization access's last step: the DSI
// self-invalidation of the marked blocks, charged to dsi-stall.
func (p *Proc) selfInvalidate() {
	start := p.q.Now()
	p.cc.SyncFlush(p.lastRes)
	p.brk.Add(stats.DSIStall, int64(p.waitLast().Done-start))
}

func (p *Proc) token(word uint64) proto.Store {
	p.seq++
	return proto.Store{Writer: p.id, Seq: p.seq, Word: word}
}

// --- posted simple operations --------------------------------------------------

// slot returns the FIFO slot a kernel writes its next simple operation
// into, in place, before it calls post. A kernel whose FIFO is full first
// parks until every posted operation has retired.
//
//dsi:hotpath
func (p *Proc) slot() *simpleOp {
	if p.npost == postedMax {
		p.settle()
	}
	return &p.posted[(p.head+p.npost)&(postedMax-1)]
}

// post queues the simple operation the kernel wrote into op, its slot,
// behind the one in flight, or issues it now when none is.
//
//dsi:hotpath
func (p *Proc) post(op *simpleOp) {
	if p.cur.kind != opNone {
		p.npost++
		return
	}
	p.issue(op)
}

// settle parks the kernel until every simple operation it posted has
// retired; resumeProc switches back into it once the FIFO is empty, or once
// a posted check has failed, and then the kernel unwinds with the failure.
//
//dsi:hotpath
func (p *Proc) settle() {
	if p.cur.kind != opNone {
		p.waitLast()
		if p.err != nil {
			panic(p.err)
		}
	}
}

// issue starts simple operation op at the current time and puts it in
// flight. A load or a store completes through lastDone; a compute delay
// charges its cycles now and completes through its own resume event. op
// goes in flight only once issued, so an issue that panics leaves nothing
// in flight for the kernel to wait on.
//
//dsi:hotpath
func (p *Proc) issue(op *simpleOp) {
	p.curStart = p.q.Now()
	switch op.kind {
	case opRead:
		if op.touch {
			p.cc.Touch(op.addr, p.lastRes)
		} else {
			p.cc.Read(op.addr, p.lastRes)
		}
	case opWrite:
		p.cc.Write(op.addr, op.st, p.lastRes)
	case opCompute:
		cat := stats.Compute
		if op.sync {
			cat = stats.Sync
		}
		p.brk.Add(cat, op.cycles)
		p.q.AfterCall(event.Time(op.cycles), resumeProc, p)
	case opNone:
		panic("cpu: issue with no operation")
	}
	p.cur = *op
}

// retire completes the simple operation in flight, charging a load's or a
// store's stall, from its issue to the completion the controller wrote into
// the result slot, to the categories of Figure 3.
//
//dsi:hotpath
func (p *Proc) retire() {
	op := &p.cur
	switch op.kind {
	case opRead:
		stall := int64(p.res.Done - p.curStart)
		switch {
		case op.sync:
			p.brk.Add(stats.Sync, stall)
		case p.res.WBRead:
			p.brk.Add(stats.ReadWB, stall)
		default:
			inv := min(int64(p.res.InvWait), stall)
			p.brk.Add(stats.ReadInval, inv)
			p.brk.Add(stats.ReadOther, stall-inv)
		}
		if op.check && p.res.Value.WordAt(op.addr) != op.st.Word {
			p.failCheck()
		}
	case opWrite:
		stall := int64(p.res.Done - p.curStart)
		full := min(int64(p.res.WBFullWait), stall)
		inv := min(int64(p.res.InvWait), stall-full)
		p.brk.Add(stats.WBFull, full)
		p.brk.Add(stats.WriteInval, inv)
		p.brk.Add(stats.WriteOther, stall-full-inv)
	case opCompute:
		// Charged when issued.
	case opNone:
		panic("cpu: retire with no operation in flight")
	}
	op.kind = opNone
}

// failCheck records the failure of the checked load in flight as the
// kernel's error and drops the operations posted behind it, so resumeProc
// switches into the kernel, which unwinds from its parking point (settle).
//
//dsi:coldpath
func (p *Proc) failCheck() {
	op := &p.cur
	p.err = fmt.Errorf("proc %d assertion failed: load of %#x word %d, want %d",
		p.id, uint64(op.addr), p.res.Value.WordAt(op.addr), op.st.Word)
	p.head, p.npost = 0, 0
}

// dropPosted forgets the operation in flight and every posted one, for a
// processor whose run has ended.
func (p *Proc) dropPosted() {
	p.cur = simpleOp{}
	p.head, p.npost = 0, 0
}

// --- processor runtime ---------------------------------------------------------

// coro is a kernel coroutine. Its loop runs one kernel per borrowing: the
// first next() after Start runs the kernel to its first parking point, and
// each later next() resumes it. When the kernel has ended, the loop yields
// once more and waits, idle, for the next kernel a borrower hands it.
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
// kernel up to its first parking point. Release returns the coroutine.
func (p *Proc) Start(k Kernel) {
	c := borrow()
	c.p, c.k = p, k
	p.co = c
	p.q.AfterCall(0, resumeProc, p)
}

// Release ends the processor's part in a finished run and returns its
// coroutine to the idle list. A kernel the run left parked (a deadlock, or
// an event budget that expired), in any kind of wait, or never started, is
// first resumed with stop set: it unwinds without recording an error, and
// the processor keeps reporting Done() == false. Operations it left posted
// are dropped. Call Release once the event loop has stopped; the processor
// can then be Reset and reused.
func (p *Proc) Release() {
	c := p.co
	if c == nil {
		return
	}
	if !p.done {
		p.stop = true
		c.next()
	}
	p.dropPosted()
	p.co = nil
	c.p, c.k = nil, nil
	idle.Lock()
	idle.coros = append(idle.coros, c)
	idle.Unlock()
}

// run executes kernel k on the coroutine, from its start event until it
// returns or panics, waits for the operations it left posted to retire, and
// then marks the processor halted. A posted check that fails meanwhile ends
// the wait, and its failure, which the in-order core would have met first,
// replaces the kernel's own. A released kernel unwinds through errReleased
// instead and is left not done.
func (p *Proc) run(k Kernel) {
	defer func() {
		if r := recover(); r != nil && r != errReleased {
			panic(r)
		}
	}()
	err := p.call(k)
	if p.cur.kind != opNone {
		p.waitLast()
	}
	if p.err == nil {
		p.err = err
	}
	p.done = true
	p.halt = p.q.Now()
}

// call runs kernel k and returns its failure, if it panicked. A release
// keeps unwinding.
func (p *Proc) call(k Kernel) (err error) {
	defer func() {
		switch r := recover(); r {
		case nil:
		case errReleased:
			panic(r)
		default:
			err = fmt.Errorf("%v", r)
		}
	}()
	if p.stop {
		panic(errReleased)
	}
	k(p)
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "halt"})
	}
	return nil
}

// resumeProc is the static typed-event action that completes a simple
// operation, starts a kernel, and resumes it after a synchronization
// operation's last step. A retired simple operation with another posted
// behind it issues that one inside this event; otherwise resumeProc
// switches to the processor's kernel coroutine, which runs until it parks
// (or halts) and switches back, so the kernel issues inside this event.
//
//dsi:hotpath
func resumeProc(arg any) {
	p := arg.(*Proc)
	if p.cur.kind != opNone {
		p.retire()
		if p.npost > 0 {
			op := &p.posted[p.head]
			p.head = (p.head + 1) & (postedMax - 1)
			p.npost--
			p.issue(op)
			return
		}
	}
	p.co.next()
}

// waitLast parks the kernel until resumeProc switches back into it: after
// an operation's last step, whose result it returns (the processor's own
// slot, valid until the kernel issues its next step), or once the FIFO has
// emptied.
//
//dsi:hotpath
func (p *Proc) waitLast() *proto.Result {
	p.co.yield(struct{}{})
	if p.stop {
		panic(errReleased)
	}
	return &p.res
}

// waitStep returns an intermediate step's result, in the processor's own
// slot like waitLast's. A step that completed inside the call that issued it
// is already ready; otherwise the kernel parks until stepDone switches back
// into it.
//
//dsi:hotpath
func (p *Proc) waitStep() *proto.Result {
	if !p.ready {
		p.waiting = true
		p.co.yield(struct{}{})
		p.waiting = false
		if p.stop {
			panic(errReleased)
		}
	}
	p.ready = false
	return &p.res
}

// stepDone completes an intermediate step, whose result the controller has
// written into the processor's slot. It switches straight into a kernel
// parked in waitStep, which issues its next step inside this event; a step
// that completed inside the call that issued it is only marked ready.
//
//dsi:hotpath
func (p *Proc) stepDone(*proto.Result) {
	if p.waiting {
		p.co.next()
		return
	}
	p.ready = true
}

// lastDone completes a load, a store, or an operation's last step, whose
// result the controller has written into the processor's slot: it charges
// the issue cycle and schedules resumeProc one cycle later, which charges
// the stall.
//
//dsi:hotpath
func (p *Proc) lastDone(*proto.Result) {
	p.brk.Add(stats.Compute, 1)
	p.q.AfterCall(1, resumeProc, p)
}

// stepDoneNow and lastDoneNow complete steps that report no result (a
// write-buffer drain, a barrier release): the step is done now.
func (p *Proc) stepDoneNow() {
	p.res = proto.Result{Done: p.q.Now()}
	p.stepDone(&p.res)
}

func (p *Proc) lastDoneNow() {
	p.res = proto.Result{Done: p.q.Now()}
	p.lastDone(&p.res)
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
