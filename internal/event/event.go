// Package event provides the deterministic discrete-event kernel that drives
// the simulator. Events are ordered by (time, insertion sequence), so two
// runs that schedule the same events in the same order produce identical
// executions regardless of map iteration order or goroutine scheduling.
//
// The queue is a hand-specialized 4-ary min-heap in structure-of-arrays
// layout: the heap proper holds only the 16-byte (time, seq) ordering keys
// plus a 4-byte payload slot index, while the event bodies (fn/act/arg) live
// in a stable side pool addressed by slot. Sift-up and sift-down therefore
// move 20 bytes per level instead of a full 48-byte event record, and the
// key lane packs three heap entries per cache line. No container/heap, no
// interface boxing, no per-event allocation. Callers on hot paths use the
// typed path (AtCall/AfterCall), which dispatches a static Action with a
// caller-pooled argument instead of a fresh closure; the closure path
// (At/After) remains for cold call sites. Both paths share one (time, seq)
// total order, so mixing them cannot perturb determinism.
package event

// Time is a simulated clock value in processor cycles.
type Time int64

// Func is an event body. It runs exactly once, at the time it was scheduled
// for, with the Queue's clock already advanced to that time.
type Func func()

// Action is a typed event body: a static function invoked with the argument
// it was scheduled with. Schedule pointer-shaped arguments (pointers, funcs)
// — they store into the payload pool without allocating, which is the point;
// pooled records let steady-state simulation schedule without any allocation.
type Action func(arg any)

// key is the ordering lane of one pending event: exactly the 16 bytes the
// heap compares. The payload lives in the side pool (see Queue.pays).
type key struct {
	at  Time
	seq uint64
}

// payload is the dispatch lane of one pending event. Exactly one of fn/act
// is set. Payloads never move while pending: the heap refers to them by slot
// index, so sifts touch only the key and slot lanes.
type payload struct {
	fn  Func
	act Action
	arg any
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

	// The heap, split structure-of-arrays: keys[i]/slots[i] describe one
	// pending event, ordered as a 4-ary min-heap over (at, seq); pays[slots[i]]
	// is its body. freeSlots recycles payload slots of executed events.
	keys      []key
	slots     []int32
	pays      []payload
	freeSlots []int32

	ran  uint64
	peak int
}

// Now returns the current simulated time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.keys) }

// Executed returns the total number of events that have run.
func (q *Queue) Executed() uint64 { return q.ran }

// LastSeq returns the insertion sequence of the most recently scheduled
// event. Two events are adjacent in the execution order if they share a time
// and were assigned consecutive sequences with none in between — the
// condition internal/netsim uses to chain same-(time, dst) deliveries onto
// one heap entry without reordering anything.
func (q *Queue) LastSeq() uint64 { return q.seq }

// Stats returns a snapshot of the kernel counters.
func (q *Queue) Stats() Stats {
	return Stats{Executed: q.ran, Scheduled: q.seq, PeakLen: q.peak}
}

// Reset returns the queue to its zero state (clock 0, empty heap, counters
// cleared) while keeping every lane's capacity, so a pooled machine reused
// across experiments starts from a clean ordering state.
func (q *Queue) Reset() {
	clear(q.pays) // drop fn/arg references so recycled queues don't pin them
	q.keys = q.keys[:0]
	q.slots = q.slots[:0]
	q.pays = q.pays[:0]
	q.freeSlots = q.freeSlots[:0]
	q.now, q.seq, q.ran, q.peak = 0, 0, 0, 0
}

// next allocates the insertion sequence number for an event at time t,
// validating the schedule time. The sequence is the FIFO tiebreaker for
// same-time events; if it ever wrapped, ordering between runs would diverge
// silently, so wraparound is a hard stop.
func (q *Queue) next(t Time) uint64 {
	if t < q.now {
		panic("event: scheduled in the past")
	}
	q.seq++
	if q.seq == 0 {
		panic("event: sequence counter wrapped; Reset the queue between runs")
	}
	return q.seq
}

// alloc places a payload in the side pool and returns its slot.
//
//dsi:hotpath
func (q *Queue) alloc(fn Func, act Action, arg any) int32 {
	if n := len(q.freeSlots); n > 0 {
		s := q.freeSlots[n-1]
		q.freeSlots = q.freeSlots[:n-1]
		q.pays[s] = payload{fn: fn, act: act, arg: arg}
		return s
	}
	q.pays = append(q.pays, payload{fn: fn, act: act, arg: arg})
	return int32(len(q.pays) - 1)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a protocol timing bug, not a recoverable condition.
func (q *Queue) At(t Time, fn Func) {
	q.push(key{at: t, seq: q.next(t)}, q.alloc(fn, nil, nil))
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
	q.push(key{at: t, seq: q.next(t)}, q.alloc(nil, act, arg))
}

// AfterCall schedules act(arg) d cycles from now (typed path).
//
//dsi:hotpath
func (q *Queue) AfterCall(d Time, act Action, arg any) {
	if d < 0 {
		panic("event: negative delay")
	}
	q.AtCall(q.now+d, act, arg)
}

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports whether an event ran.
//
//dsi:hotpath
func (q *Queue) Step() bool {
	if len(q.keys) == 0 {
		return false
	}
	at, s := q.pop()
	q.now = at
	q.ran++
	// Copy the body and release the slot before dispatch: the event may
	// schedule (and the slot be reused) while it runs.
	p := q.pays[s]
	q.pays[s] = payload{}
	q.freeSlots = append(q.freeSlots, s)
	if p.fn != nil {
		p.fn()
	} else {
		p.act(p.arg)
	}
	return true
}

// Run executes events until the queue drains, returning the final time.
func (q *Queue) Run() Time {
	for q.Step() {
	}
	return q.now
}

// RunUntil executes events with time ≤ limit. Events scheduled beyond the
// limit remain queued. It reports whether the queue drained.
func (q *Queue) RunUntil(limit Time) bool {
	for len(q.keys) > 0 && q.keys[0].at <= limit {
		q.Step()
	}
	return len(q.keys) == 0
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

// --- 4-ary min-heap -----------------------------------------------------------
//
// A 4-ary layout halves the tree depth of the binary heap, trading slightly
// wider sift-down scans for fewer cache-missing levels — the classic d-ary
// tradeoff, and a consistent win for the simulator's push/pop-dominated
// access pattern. Ordering is the same (time, seq) total order the binary
// heap used; since it is total (seq is unique), heap shape cannot affect
// pop order and results stay bit-exact. The keys/slots lanes move together;
// payloads stay put.

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
	if len(q.keys) > q.peak {
		q.peak = len(q.keys)
	}
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

// pop removes the minimum, returning its time and payload slot.
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
	busy   Time // total occupied cycles, for utilization stats
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
	s.busy += dur
	return start, done
}

// FreeAt returns the earliest time a new admission could start service.
func (s *Server) FreeAt() Time { return s.freeAt }

// Reset returns the server to idle at time 0, for machine reuse.
func (s *Server) Reset() { s.freeAt, s.busy = 0, 0 }

// Busy returns the cumulative cycles the server has been occupied.
func (s *Server) Busy() Time { return s.busy }
