// Package cpu models the processors: a simple in-order core that issues
// loads, stores, swaps, compute delays, and synchronization operations
// against its node's cache controller, stalling according to the memory
// consistency model, and attributing every stalled cycle to the categories
// of the paper's Figure 3.
//
// Workload kernels are ordinary Go functions, each run on a coroutine
// (iter.Pull) while every event runs on the goroutine that drives the event
// queue. Every kernel-side operation is a straight line of steps issued from
// the kernel's coroutine: a load or a store is one step, and a
// synchronization access drains the write buffer, performs its access, and
// self-invalidates the marked blocks (§4.2). A step completes in one of two
// ways:
//
//   - An intermediate step, one another step follows, switches straight back
//     into the kernel, which issues the next step inside the completing
//     event. A step that completes inside the call that issued it (a hit, an
//     SC or empty drain) lets the kernel go on without yielding.
//   - An operation's last step charges the issue cycle and resumes the kernel
//     one cycle later (see resumeProc). The kernel charges the step's stall
//     and runs until it has issued its next operation, then yields back into
//     that event.
//
// Exactly one of them runs at any moment and control moves by coroutine
// switch, never through the Go scheduler, so simulations are deterministic
// as long as kernels do not mutate Go state shared between processors
// (read-only shared setup is fine).
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

	// The core has at most one step in flight. res is the latest completed
	// step's result. ready marks an intermediate step that completed inside
	// the call that issued it, waiting a kernel parked on an intermediate
	// step, and stop a kernel released while parked (see Release).
	res     proto.Result
	ready   bool
	waiting bool
	stop    bool

	// The step completions, bound once at construction so issuing a step
	// allocates nothing: step and stepRes end an intermediate step, last and
	// lastRes an operation's last step.
	step, last       func()
	stepRes, lastRes func(proto.Result)

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

// New builds a processor. Start must be called to launch its kernel.
func New(id, n int, q *event.Queue, cc *proto.CacheCtrl, barrier *Barrier, brk *stats.Breakdown, seed uint64) *Proc {
	p := &Proc{
		id: id, n: n, q: q, cc: cc, barrier: barrier, brk: brk,
		rnd: rng.New(seed ^ uint64(id)*0x9e3779b97f4a7c15),
	}
	p.step, p.stepRes = p.stepDoneNow, p.stepDone
	p.last, p.lastRes = p.lastDoneNow, p.lastDone
	return p
}

// Reset returns a processor to its just-built state for machine reuse,
// keeping the completions bound at construction. The queue, cache
// controller, barrier, and breakdown wiring persist; only the run state
// (RNG, store sequence, halt/err, step state) is cleared. The previous run's
// kernel must have been released: Reset before Release would leave it
// holding a coroutine, so that is a hard error.
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

// Read performs a load and returns the accessed word with its block's
// coherence token.
func (p *Proc) Read(a mem.Addr) Value { return p.read(a, false) }

// ReadSync is Read with the stall charged to synchronization (spin loops).
func (p *Proc) ReadSync(a mem.Addr) Value { return p.read(a, true) }

// read is a load: one last step.
//
//dsi:hotpath
func (p *Proc) read(a mem.Addr, sync bool) Value {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "read", Addr: a, Sync: sync})
	}
	start := p.q.Now()
	p.cc.Read(a, p.lastRes)
	res := p.waitLast()
	stall := int64(res.Done - start)
	switch {
	case sync:
		p.brk.Add(stats.Sync, stall)
	case res.WBRead:
		p.brk.Add(stats.ReadWB, stall)
	default:
		inv := min(int64(res.InvWait), stall)
		p.brk.Add(stats.ReadInval, inv)
		p.brk.Add(stats.ReadOther, stall-inv)
	}
	return Value{Writer: res.Value.Writer, Seq: res.Value.Seq, Word: res.Value.WordAt(a)}
}

// Write performs a store of a fresh value token (Word = 0).
func (p *Proc) Write(a mem.Addr) { p.WriteWord(a, 0) }

// WriteWord stores a fresh token carrying the given word (for flags). A
// store is one last step.
//
//dsi:hotpath
func (p *Proc) WriteWord(a mem.Addr, w uint64) {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "write", Addr: a, Word: w})
	}
	start := p.q.Now()
	p.cc.Write(a, p.token(w), p.lastRes)
	res := p.waitLast()
	stall := int64(res.Done - start)
	full := min(int64(res.WBFullWait), stall)
	inv := min(int64(res.InvWait), stall-full)
	p.brk.Add(stats.WBFull, full)
	p.brk.Add(stats.WriteInval, inv)
	p.brk.Add(stats.WriteOther, stall-full-inv)
}

// Swap atomically exchanges the block's word, returning the old word. It is
// a synchronization access: drain, swap, then self-invalidation.
func (p *Proc) Swap(a mem.Addr, w uint64) uint64 {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "swap", Addr: a, Word: w, Sync: true})
	}
	p.drain()
	drained := p.q.Now()
	p.cc.Swap(a, w, p.token(w), p.stepRes)
	res := p.waitStep()
	p.brk.Add(stats.Sync, int64(res.Done-drained))
	p.selfInvalidate()
	return res.OldWord
}

// Compute advances the processor by the given number of cycles.
func (p *Proc) Compute(cycles int64) {
	if cycles < 0 {
		panic("cpu: negative compute")
	}
	if cycles > 0 {
		p.compute(cycles, false)
	}
}

// compute is a compute delay, charged to synchronization for a lock's
// backoff: one last step, completed by its own resume event.
//
//dsi:hotpath
func (p *Proc) compute(cycles int64, sync bool) {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "compute", Cycles: cycles, Sync: sync})
	}
	cat := stats.Compute
	if sync {
		cat = stats.Sync
	}
	p.brk.Add(cat, cycles)
	p.q.AfterCall(event.Time(cycles), resumeProc, p)
	p.waitLast()
}

// ComputeInstr charges instruction-count work at the 3-issue rate of the
// paper's SuperSPARC model.
func (p *Proc) ComputeInstr(instructions int64) {
	p.Compute((instructions + 2) / 3)
}

// Lock acquires a spin lock with test&set plus exponential backoff. The
// acquire loop spins on the swap itself — not on a plain test read —
// because every swap is a synchronization access that self-invalidates
// marked blocks: a plain-read spin on a stale tear-off copy of the lock
// word would never observe the release (the forward-progress hazard §3.3
// of the paper describes).
//
// Each attempt is its own swap operation, drain then swap, followed by a
// backoff compute while the word is taken. A failed attempt is not a
// completed synchronization point, so the self-invalidation runs once, as
// a flush operation after the acquire.
func (p *Proc) Lock(a mem.Addr) {
	backoff := int64(8)
	for {
		if p.OnOp != nil {
			p.OnOp(TraceOp{Kind: "swap", Addr: a, Word: 1, Sync: true})
		}
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
	p.drain()
	start := p.q.Now()
	p.cc.SyncFlush(p.stepRes)
	p.brk.Add(stats.DSIStall, int64(p.waitStep().Done-start))
	arrived := p.q.Now()
	p.barrier.Arrive(p.last)
	p.brk.Add(stats.Sync, int64(p.waitLast().Done-arrived))
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
	p.q.AfterCall(0, resumeProc, p)
}

// Release ends the processor's part in a finished run and returns its
// coroutine to the idle list. A kernel the run left parked mid-operation (a
// deadlock, or an event budget that expired), in either kind of wait, or
// never started, is first resumed with stop set: it unwinds without
// recording an error, and the processor keeps reporting Done() == false.
// Call Release once the event loop has stopped; the processor can then be
// Reset and reused.
func (p *Proc) Release() {
	c := p.co
	if c == nil {
		return
	}
	if !p.done {
		p.stop = true
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
	if p.stop {
		panic(errReleased)
	}
	k(p)
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: "halt"})
	}
}

// resumeProc is the static typed-event action that starts a kernel and
// resumes it after each operation's last step. It switches to the
// processor's kernel coroutine, which runs until it has issued its next
// operation (or halted) and switches back, so the kernel issues inside this
// event.
//
//dsi:hotpath
func resumeProc(arg any) {
	arg.(*Proc).co.next()
}

// waitLast parks the kernel until lastDone has completed its operation's
// last step and resumeProc has resumed it, and returns the step's result.
//
//dsi:hotpath
func (p *Proc) waitLast() proto.Result {
	p.co.yield(struct{}{})
	if p.stop {
		panic(errReleased)
	}
	return p.res
}

// waitStep returns an intermediate step's result. A step that completed
// inside the call that issued it is already ready; otherwise the kernel
// parks until stepDone switches back into it.
//
//dsi:hotpath
func (p *Proc) waitStep() proto.Result {
	if !p.ready {
		p.waiting = true
		p.co.yield(struct{}{})
		p.waiting = false
		if p.stop {
			panic(errReleased)
		}
	}
	p.ready = false
	return p.res
}

// stepDone completes an intermediate step. It switches straight into a
// kernel parked in waitStep, which issues its next step inside this event;
// a step that completed inside the call that issued it is only marked ready.
//
//dsi:hotpath
func (p *Proc) stepDone(res proto.Result) {
	p.res = res
	if p.waiting {
		p.co.next()
		return
	}
	p.ready = true
}

// lastDone completes an operation's last step: it charges the issue cycle
// and resumes the kernel one cycle later, which then charges the step's
// stall.
//
//dsi:hotpath
func (p *Proc) lastDone(res proto.Result) {
	p.res = res
	p.brk.Add(stats.Compute, 1)
	p.q.AfterCall(1, resumeProc, p)
}

// stepDoneNow and lastDoneNow complete steps that report no result (a
// write-buffer drain, a barrier release): the step is done now.
func (p *Proc) stepDoneNow() { p.stepDone(proto.Result{Done: p.q.Now()}) }
func (p *Proc) lastDoneNow() { p.lastDone(proto.Result{Done: p.q.Now()}) }

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
