package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFIFOWithinSameTime(t *testing.T) {
	var q Queue
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(5, func() { order = append(order, i) })
	}
	q.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (same-time events must run in insertion order)", i, v, i)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	var q Queue
	var order []Time
	for _, at := range []Time{30, 10, 20, 10, 0} {
		at := at
		q.At(at, func() { order = append(order, at) })
	}
	end := q.Run()
	want := []Time{0, 10, 10, 20, 30}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if end != 30 {
		t.Fatalf("final time = %d, want 30", end)
	}
}

func TestClockAdvancesDuringEvent(t *testing.T) {
	var q Queue
	var seen Time
	q.At(7, func() { seen = q.Now() })
	q.Run()
	if seen != 7 {
		t.Fatalf("Now() inside event = %d, want 7", seen)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var q Queue
	var hit Time
	q.At(10, func() {
		q.After(5, func() { hit = q.Now() })
	})
	q.Run()
	if hit != 15 {
		t.Fatalf("After fired at %d, want 15", hit)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var q Queue
	q.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		q.At(5, func() {})
	})
	q.Run()
}

func TestRunStepsWatchdog(t *testing.T) {
	var q Queue
	// A self-perpetuating event chain must be stoppable.
	var rearm func()
	rearm = func() { q.After(1, rearm) }
	q.After(1, rearm)
	if n := q.RunSteps(100); n != 100 {
		t.Fatalf("RunSteps = %d, want 100", n)
	}
}

func TestServerSerializes(t *testing.T) {
	var s Server
	start, done := s.Admit(0, 3)
	if start != 0 || done != 3 {
		t.Fatalf("first admit = (%d,%d), want (0,3)", start, done)
	}
	// Admitted while busy: queues behind.
	start, done = s.Admit(1, 4)
	if start != 3 || done != 7 {
		t.Fatalf("second admit = (%d,%d), want (3,7)", start, done)
	}
	// Admitted after idle gap: starts immediately.
	start, done = s.Admit(100, 2)
	if start != 100 || done != 102 {
		t.Fatalf("third admit = (%d,%d), want (100,102)", start, done)
	}
}

func TestServerZeroOccupancy(t *testing.T) {
	var s Server
	s.Admit(0, 5)
	start, done := s.Admit(0, 0)
	if start != 5 || done != 5 {
		t.Fatalf("zero-occupancy admit = (%d,%d), want (5,5)", start, done)
	}
}

// Property: for any admission sequence, service intervals never overlap and
// respect both arrival order and arrival times.
func TestServerNoOverlapProperty(t *testing.T) {
	f := func(arrivals []uint8, durs []uint8) bool {
		var s Server
		now := Time(0)
		prevDone := Time(0)
		n := len(arrivals)
		if len(durs) < n {
			n = len(durs)
		}
		for i := 0; i < n; i++ {
			now += Time(arrivals[i] % 16)
			d := Time(durs[i] % 8)
			start, done := s.Admit(now, d)
			if start < now || start < prevDone || done != start+d {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypedPathInterleavesWithClosures(t *testing.T) {
	var q Queue
	var order []int
	push := func(arg any) { order = append(order, *arg.(*int)) }
	vals := [4]int{0, 1, 2, 3}
	q.At(5, func() { order = append(order, vals[0]) })
	q.AtCall(5, push, &vals[1])
	q.At(5, func() { order = append(order, vals[2]) })
	q.AtCall(5, push, &vals[3])
	q.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want [0 1 2 3] (typed and closure events share one FIFO order)", order)
		}
	}
}

func TestAfterCallSchedulesRelative(t *testing.T) {
	var q Queue
	var hit Time
	q.AtCall(10, func(arg any) {
		arg.(*Queue).AfterCall(5, func(any) { hit = q.Now() }, nil)
	}, &q)
	q.Run()
	if hit != 15 {
		t.Fatalf("AfterCall fired at %d, want 15", hit)
	}
}

func TestStatsCounters(t *testing.T) {
	var q Queue
	q.At(1, func() {})
	q.AtCall(2, func(any) {}, nil)
	q.AtCall(3, func(any) {}, nil)
	if s := q.Stats(); s.PeakLen != 3 {
		t.Fatalf("PeakLen = %d, want 3", s.PeakLen)
	}
	q.Run()
	s := q.Stats()
	if s.Executed != 3 || s.Scheduled != 3 {
		t.Fatalf("Stats = %+v, want Executed=3 Scheduled=3", s)
	}
}

func TestReset(t *testing.T) {
	var q Queue
	q.At(1, func() {})
	q.At(2, func() { t.Error("event survived Reset") })
	q.At(2*wheelSize, func() { t.Error("overflow event survived Reset") })
	q.Step()
	q.Reset()
	if q.Now() != 0 || q.Len() != 0 {
		t.Fatalf("after Reset: now=%d len=%d, want 0, 0", q.Now(), q.Len())
	}
	if s := q.Stats(); s != (Stats{}) {
		t.Fatalf("after Reset: Stats = %+v, want zero", s)
	}
	// The queue must be fully reusable with fresh ordering state.
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		q.At(5, func() { order = append(order, i) })
	}
	q.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("post-Reset order = %v, want insertion order", order)
		}
	}
}

func TestSeqWraparoundPanics(t *testing.T) {
	var q Queue
	q.seq = ^uint64(0) // next increment wraps to 0
	defer func() {
		if recover() == nil {
			t.Error("sequence wraparound did not panic")
		}
	}()
	q.At(1, func() {})
}

// fuzzDelay draws a scheduling delay across three wheel windows, [0, 3W):
// one draw in four is 0 or 1 cycles (the common handoff delays), one in four
// sits on a window edge (W−1, W, W+1 and their 2W counterparts), and the
// rest are uniform, so events land on the wheel, in the overflow heap and on
// both sides of every boundary where one tier hands over to the other.
func fuzzDelay(rng *rand.Rand) Time {
	switch rng.Intn(4) {
	case 0:
		return Time(rng.Intn(2))
	case 1:
		edges := [...]Time{wheelSize - 1, wheelSize, wheelSize + 1, 2*wheelSize - 1, 2 * wheelSize, 2*wheelSize + 1}
		return edges[rng.Intn(len(edges))]
	default:
		return Time(rng.Intn(3 * wheelSize))
	}
}

// fuzzRec is one scheduled event of the fuzz tests: its due time, its
// insertion order, and whether it went through the typed path.
type fuzzRec struct {
	at    Time
	seq   int
	typed bool
}

// checkReference fails unless popped lists every scheduled record in the
// reference execution order: by time, then by insertion sequence.
func checkReference(t *testing.T, trial int, scheduled, popped []fuzzRec) {
	t.Helper()
	sort.Slice(scheduled, func(i, j int) bool {
		if scheduled[i].at != scheduled[j].at {
			return scheduled[i].at < scheduled[j].at
		}
		return scheduled[i].seq < scheduled[j].seq
	})
	if len(popped) != len(scheduled) {
		t.Fatalf("trial %d: popped %d of %d events", trial, len(popped), len(scheduled))
	}
	for i := range scheduled {
		if popped[i] != scheduled[i] {
			t.Fatalf("trial %d: pop %d delivered %+v, reference order has %+v",
				trial, i, popped[i], scheduled[i])
		}
	}
}

// TestQueueOrderingFuzz drives both tiers with random interleavings of
// schedules and pops, with delays drawn by fuzzDelay and some event bodies
// scheduling further events while they run, and checks the execution order
// against a reference sort by (time, seq). The ordering tests above schedule
// only short delays, so they cannot tell a correct queue from one that
// mishandles the overflow tier or the wheel's wraparound.
func TestQueueOrderingFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var q Queue
		var scheduled, popped []fuzzRec
		var schedule func()
		schedule = func() {
			r := fuzzRec{at: q.Now() + fuzzDelay(rng), seq: len(scheduled)}
			scheduled = append(scheduled, r)
			q.At(r.at, func() {
				if q.Now() != r.at {
					t.Fatalf("trial %d: event %d due at %d ran at %d", trial, r.seq, r.at, q.Now())
				}
				popped = append(popped, r)
				if len(scheduled) < 1000 && rng.Intn(4) == 0 {
					schedule()
				}
			})
		}
		for op := 0; op < 400; op++ {
			if q.Len() > 0 && rng.Intn(3) == 0 {
				q.Step() // pops the minimum and runs its closure
			} else {
				schedule()
			}
			if pending := len(scheduled) - len(popped); q.Len() != pending {
				t.Fatalf("trial %d: Len = %d with %d events pending", trial, q.Len(), pending)
			}
		}
		q.Run()
		checkReference(t, trial, scheduled, popped)
	}
}

// TestQueuePayloadIntegrityFuzz targets the node pool: wheel lists link
// nodes, heap entries point at them, migration moves them from one tier to
// the other, and nodes are recycled across pops. Each scheduled event
// carries a unique payload identity, mixing typed and closure bodies, with
// delays drawn by fuzzDelay and some bodies scheduling further events. Every
// pop must surface the body that was scheduled with its key, and the pool
// must not grow beyond the peak number of pending events (node recycling).
func TestQueuePayloadIntegrityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const maxEvents = 1200
	for trial := 0; trial < 100; trial++ {
		var q Queue
		var scheduled, popped []fuzzRec
		ids := make([]fuzzRec, 0, maxEvents) // never reallocates: bodies point into it
		var schedule func()
		body := func(id *fuzzRec) {
			popped = append(popped, *id)
			if len(scheduled) < maxEvents && rng.Intn(4) == 0 {
				schedule()
			}
		}
		popID := func(arg any) { body(arg.(*fuzzRec)) }
		schedule = func() {
			r := fuzzRec{at: q.Now() + fuzzDelay(rng), seq: len(scheduled), typed: rng.Intn(2) == 0}
			scheduled = append(scheduled, r)
			ids = append(ids, r)
			id := &ids[len(ids)-1]
			if r.typed {
				q.AtCall(r.at, popID, id)
			} else {
				q.At(r.at, func() { body(id) })
			}
		}
		for op := 0; op < 600; op++ {
			if q.Len() > 0 && rng.Intn(3) == 0 {
				q.Step()
				continue
			}
			schedule()
		}
		q.Run()
		if peak, got := q.Stats().PeakLen, len(q.nodes); got > peak {
			t.Fatalf("trial %d: node pool has %d nodes for peak %d pending (nodes not recycled)",
				trial, got, peak)
		}
		checkReference(t, trial, scheduled, popped)
	}
}

// TestOverflowEventRunsBeforeLaterDirectInsert pins the hand-over between
// the tiers. An event scheduled W+5 cycles ahead waits in the overflow heap;
// an event scheduled for the same cycle once the window covers it goes
// straight onto the wheel. The overflow event has the lower sequence, so it
// must run first, which holds only if the heap moved it onto the wheel when
// the clock advanced, before the direct insert was appended.
func TestOverflowEventRunsBeforeLaterDirectInsert(t *testing.T) {
	var q Queue
	const due = wheelSize + 5
	var order []string
	q.At(due, func() { order = append(order, "overflow") })
	q.At(10, func() {
		q.At(due, func() { order = append(order, "direct") })
	})
	q.Run()
	if len(order) != 2 || order[0] != "overflow" || order[1] != "direct" {
		t.Fatalf("order = %v, want [overflow direct]: same-cycle events run in seq order", order)
	}
}

// Property: events run in nondecreasing time order, and same-time events run
// in insertion order.
func TestQueueOrderingProperty(t *testing.T) {
	f := func(times []uint8) bool {
		var q Queue
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, tt := range times {
			i, at := i, Time(tt%32)
			q.At(at, func() { got = append(got, rec{at, i}) })
		}
		q.Run()
		if len(got) != len(times) {
			return false
		}
		seen := make(map[Time]int)
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
		}
		for _, r := range got {
			if last, ok := seen[r.at]; ok && r.seq < last {
				return false
			}
			seen[r.at] = r.seq
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
