// Package event provides the deterministic discrete-event kernel that drives
// the simulator. Events are ordered by (time, insertion sequence), so two
// runs that schedule the same events in the same order produce identical
// executions regardless of map iteration order or goroutine scheduling.
//
// The queue is a timing wheel with an overflow heap. The wheel covers the
// window [now, now+W) with one FIFO list per cycle plus an occupancy bitmap:
// scheduling appends to its cycle's list and popping takes the head of the
// first occupied cycle, both in O(1). Insertion order is sequence order, so
// each list already holds its cycle's events in (time, seq) order. Events
// due W or more cycles ahead (retry timers, long compute delays) wait in a
// 4-ary min-heap over (time, seq). Whenever the clock advances, the heap
// moves every event the new window covers onto the wheel before any event
// at the new time runs. An overflow event was scheduled before any event
// could be inserted directly for its cycle, so appending it first keeps the
// total order.
//
// Event bodies live in a node pool addressed by index: a wheel list links
// nodes, and the heap orders 16-byte (time, seq) keys beside node indexes,
// so no tier moves a body. No container/heap, no interface boxing, no
// per-event allocation. Callers on hot paths use the typed path
// (AtCall/AfterCall), which dispatches a static Action with a caller-pooled
// argument instead of a fresh closure; the closure path (At/After) remains
// for cold call sites. Both paths share one (time, seq) total order, so
// mixing them cannot perturb determinism.
package event

import "math/bits"

// Time is a simulated clock value in processor cycles.
type Time int64

// Func is an event body. It runs exactly once, at the time it was scheduled
// for, with the Queue's clock already advanced to that time.
type Func func()

// Action is a typed event body: a static function invoked with the argument
// it was scheduled with. Schedule pointer-shaped arguments (pointers, funcs)
// — they store into the node pool without allocating, which is the point;
// pooled records let steady-state simulation schedule without any allocation.
type Action func(arg any)

// The wheel covers wheelSize cycles. Over the paper's 32-processor grid
// every scheduling delay is under 512 cycles, so 1,024 keeps all of them on
// the wheel; only retry timers (8×latency+512 cycles by default) and long
// compute delays overflow. A 2,048-cycle wheel measured no faster, on the
// paper grid or on soak traffic.
const (
	wheelBits  = 10
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// node is one pending event's body. next links the node to the one after it
// in its wheel cycle's FIFO list; it is meaningful only while the node is
// on the wheel and not its list's tail.
type node struct {
	act  Action
	arg  any
	next int32
}

// list is one wheel cycle's FIFO of nodes, head first. It is meaningful only
// while the cycle's occupancy bit is set.
type list struct {
	head, tail int32
}

// key is the ordering lane of one overflow event: exactly the 16 bytes the
// heap compares.
type key struct {
	at  Time
	seq uint64
}

// Stats counts kernel activity for observability (reported per run as
// stats.Kernel in every Result).
type Stats struct {
	Executed  uint64 // events run
	Scheduled uint64 // events enqueued
	PeakLen   int    // maximum pending events observed
}

// Queue is a discrete-event scheduler. The zero value is ready to use with
// the clock at time 0.
type Queue struct {
	now Time
	seq uint64

	// The wheel: lists[t&wheelMask] holds the events due at cycle t for t in
	// [now, now+wheelSize), and bit t&wheelMask of occ says whether that
	// list is non-empty. onWheel counts the events on all lists.
	lists   [wheelSize]list
	occ     [wheelWords]uint64
	onWheel int

	// The overflow tier, split structure-of-arrays: keys[i]/slots[i]
	// describe one event due at now+wheelSize or later, ordered as a 4-ary
	// min-heap over (at, seq); nodes[slots[i]] is its body.
	keys  []key
	slots []int32

	// nodes holds every pending event's body; free recycles the nodes of
	// executed events.
	nodes []node
	free  []int32

	ran  uint64
	peak int
}

// Now returns the current simulated time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.onWheel + len(q.keys) }

// Executed returns the total number of events that have run.
func (q *Queue) Executed() uint64 { return q.ran }

// Stats returns a snapshot of the kernel counters.
func (q *Queue) Stats() Stats {
	return Stats{Executed: q.ran, Scheduled: q.seq, PeakLen: q.peak}
}

// Reset returns the queue to its zero state (clock 0, no pending events,
// counters cleared) while keeping the capacity of the node pool and the
// heap, so a pooled machine reused across experiments starts from a clean
// ordering state.
func (q *Queue) Reset() {
	clear(q.nodes) // drop act/arg references so recycled queues don't pin them
	q.nodes = q.nodes[:0]
	q.free = q.free[:0]
	q.keys = q.keys[:0]
	q.slots = q.slots[:0]
	q.occ = [wheelWords]uint64{} // lists are read only under a set bit
	q.onWheel = 0
	q.now, q.seq, q.ran, q.peak = 0, 0, 0, 0
}

// schedule enqueues act(arg) at absolute time t: on the wheel when t falls
// in the window, in the overflow heap otherwise. The insertion sequence is
// the FIFO tiebreaker for same-time events; if it ever wrapped, ordering
// between runs would diverge silently, so wraparound is a hard stop.
//
//dsi:hotpath
func (q *Queue) schedule(t Time, act Action, arg any) {
	if t < q.now {
		panic("event: scheduled in the past")
	}
	q.seq++
	if q.seq == 0 {
		panic("event: sequence counter wrapped; Reset the queue between runs")
	}
	var s int32
	if n := len(q.free); n > 0 {
		s = q.free[n-1]
		q.free = q.free[:n-1]
		q.nodes[s] = node{act: act, arg: arg}
	} else {
		s = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{act: act, arg: arg})
	}
	if t-q.now < wheelSize {
		q.enwheel(t, s)
	} else {
		q.push(key{at: t, seq: q.seq}, s)
	}
	if n := q.onWheel + len(q.keys); n > q.peak {
		q.peak = n
	}
}

// callFunc dispatches a closure scheduled through At or After.
func callFunc(fn any) { fn.(Func)() }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a protocol timing bug, not a recoverable condition.
func (q *Queue) At(t Time, fn Func) {
	q.schedule(t, callFunc, fn)
}

// After schedules fn to run d cycles from now.
func (q *Queue) After(d Time, fn Func) {
	if d < 0 {
		panic("event: negative delay")
	}
	q.At(q.now+d, fn)
}

// AtCall schedules act(arg) at absolute time t. This is the allocation-free
// path: act is a static function and arg is typically a pooled record, so
// nothing escapes per event.
//
//dsi:hotpath
func (q *Queue) AtCall(t Time, act Action, arg any) {
	q.schedule(t, act, arg)
}

// AfterCall schedules act(arg) d cycles from now (typed path).
//
//dsi:hotpath
func (q *Queue) AfterCall(d Time, act Action, arg any) {
	if d < 0 {
		panic("event: negative delay")
	}
	q.schedule(q.now+d, act, arg)
}

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports whether an event ran.
//
//dsi:hotpath
func (q *Queue) Step() bool {
	if q.onWheel == 0 {
		if len(q.keys) == 0 {
			return false
		}
		q.advance(q.keys[0].at)
	} else if t := q.nextTime(); t != q.now {
		q.advance(t)
	}
	b := int(q.now) & wheelMask
	l := &q.lists[b]
	s := l.head
	if s == l.tail {
		q.occ[b>>6] &^= 1 << (b & 63)
	} else {
		l.head = q.nodes[s].next
	}
	q.onWheel--
	q.ran++
	// Copy the body and release the node before dispatch: the event may
	// schedule (and the node be reused) while it runs.
	n := &q.nodes[s]
	act, arg := n.act, n.arg
	n.act, n.arg = nil, nil
	q.free = append(q.free, s)
	act(arg)
	return true
}

// Run executes events until the queue drains, returning the final time.
func (q *Queue) Run() Time {
	for q.Step() {
	}
	return q.now
}

// RunSteps executes at most n events; it reports how many ran. Useful as a
// watchdog in tests that must terminate even if a protocol livelocks.
func (q *Queue) RunSteps(n uint64) uint64 {
	var i uint64
	for ; i < n; i++ {
		if !q.Step() {
			break
		}
	}
	return i
}

// --- timing wheel --------------------------------------------------------------

// enwheel appends node s to the list of cycle t, which must lie in the
// window [now, now+wheelSize).
//
//dsi:hotpath
func (q *Queue) enwheel(t Time, s int32) {
	b := int(t) & wheelMask
	l := &q.lists[b]
	if w, bit := b>>6, uint64(1)<<(b&63); q.occ[w]&bit == 0 {
		q.occ[w] |= bit
		l.head = s
	} else {
		q.nodes[l.tail].next = s
	}
	l.tail = s
	q.onWheel++
}

// nextTime returns the earliest cycle with an event on the wheel: the first
// set occupancy bit at or after now's, wrapping around the bitmap. The
// wheel must not be empty.
//
//dsi:hotpath
func (q *Queue) nextTime() Time {
	b := int(q.now) & wheelMask
	w := b >> 6
	if m := q.occ[w] >> (b & 63); m != 0 {
		return q.now + Time(bits.TrailingZeros64(m))
	}
	// The last probe revisits word w, whose bits at and after b are clear,
	// so it finds only the cycles that wrapped past the end of the bitmap.
	for i := 1; i <= wheelWords; i++ {
		j := (w + i) & (wheelWords - 1)
		if m := q.occ[j]; m != 0 {
			return q.now + Time((j<<6+bits.TrailingZeros64(m)-b)&wheelMask)
		}
	}
	panic("event: wheel count and occupancy bitmap disagree")
}

// advance moves the clock forward to t and, before any event at t runs,
// moves every overflow event the new window covers onto the wheel, in
// (at, seq) order.
//
//dsi:hotpath
func (q *Queue) advance(t Time) {
	q.now = t
	for len(q.keys) > 0 && q.keys[0].at-t < wheelSize {
		at, s := q.pop()
		q.enwheel(at, s)
	}
}

// --- overflow heap -------------------------------------------------------------
//
// A 4-ary layout halves the tree depth of a binary heap, trading slightly
// wider sift-down scans for fewer cache-missing levels. Ordering is the
// (time, seq) total order; since it is total (seq is unique), heap shape
// cannot affect pop order. The keys/slots lanes move together; nodes stay
// put.

// before reports whether a orders strictly before b.
func before(a, b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

//dsi:hotpath
func (q *Queue) push(k key, s int32) {
	q.keys = append(q.keys, k)
	q.slots = append(q.slots, s)
	// Sift up: move the hole toward the root until the parent orders first.
	ks, sl := q.keys, q.slots
	i := len(ks) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !before(k, ks[p]) {
			break
		}
		ks[i], sl[i] = ks[p], sl[p]
		i = p
	}
	ks[i], sl[i] = k, s
}

// pop removes the minimum, returning its time and node.
//
//dsi:hotpath
func (q *Queue) pop() (Time, int32) {
	ks, sl := q.keys, q.slots
	at := ks[0].at
	s := sl[0]
	n := len(ks) - 1
	lastK, lastS := ks[n], sl[n]
	q.keys, q.slots = ks[:n], sl[:n]
	if n > 0 {
		q.siftDown(lastK, lastS)
	}
	return at, s
}

// siftDown re-inserts the (k, s) pair starting from the root of the shrunken
// heap.
//
//dsi:hotpath
func (q *Queue) siftDown(k key, s int32) {
	ks, sl := q.keys, q.slots
	n := len(ks)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Select the least of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(ks[j], ks[m]) {
				m = j
			}
		}
		if !before(ks[m], k) {
			break
		}
		ks[i], sl[i] = ks[m], sl[m]
		i = m
	}
	ks[i], sl[i] = k, s
}

// Server models a resource that serves one item at a time (a cache
// controller, a directory controller, a network interface). Admit returns
// the interval during which the resource processes a request admitted now:
// requests queue FIFO behind whatever the server is already committed to.
type Server struct {
	freeAt Time
}

// Admit reserves the server for dur cycles starting no earlier than now,
// returning the start and completion times of the reservation.
//
//dsi:hotpath
func (s *Server) Admit(now Time, dur Time) (start, done Time) {
	if dur < 0 {
		panic("event: negative occupancy")
	}
	start = now
	if s.freeAt > start {
		start = s.freeAt
	}
	done = start + dur
	s.freeAt = done
	return start, done
}

// FreeAt returns the earliest time a new admission could start service.
func (s *Server) FreeAt() Time { return s.freeAt }

// Reset returns the server to idle at time 0, for machine reuse.
func (s *Server) Reset() { s.freeAt = 0 }
