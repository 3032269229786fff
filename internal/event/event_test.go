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

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	var q Queue
	ran := 0
	q.At(5, func() { ran++ })
	q.At(10, func() { ran++ })
	q.At(15, func() { ran++ })
	if drained := q.RunUntil(10); drained {
		t.Fatal("RunUntil(10) reported drained with an event at 15 pending")
	}
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if q.Len() != 1 {
		t.Fatalf("pending = %d, want 1", q.Len())
	}
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
	if s.Busy() != 9 {
		t.Fatalf("busy = %d, want 9", s.Busy())
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

// TestHeapOrderingFuzz drives the 4-ary heap with random interleavings of
// pushes and pops and checks every pop sequence against a reference sort by
// (time, seq). This is the heap-shape test: the public ordering properties
// above can't distinguish a correct heap from one that works only for
// monotone schedules.
func TestHeapOrderingFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var q Queue
		type rec struct {
			at  Time
			seq int
		}
		var scheduled, popped []rec
		n := 0
		for op := 0; op < 400; op++ {
			if q.Len() > 0 && rng.Intn(3) == 0 {
				q.Step() // pops the minimum and runs its closure
				continue
			}
			at := q.Now() + Time(rng.Intn(50))
			r := rec{at, n}
			n++
			scheduled = append(scheduled, r)
			q.At(at, func() { popped = append(popped, r) })
		}
		q.Run()
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
				t.Fatalf("trial %d: pop %d = %+v, reference sort has %+v",
					trial, i, popped[i], scheduled[i])
			}
		}
	}
}

// TestHeapSoAPayloadIntegrityFuzz targets the structure-of-arrays split: the
// heap lanes (keys/slots) move during sifts while payload bodies stay put in
// the side pool and slots are recycled across pops. Each scheduled event
// carries a unique payload identity, mixing typed and closure bodies; every
// pop must surface the body that was scheduled with its key, and the pool
// must not grow beyond the peak number of pending events (slot recycling).
func TestHeapSoAPayloadIntegrityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var q Queue
		type rec struct {
			at    Time
			seq   int
			typed bool
		}
		var scheduled, popped []rec
		ids := make([]rec, 0, 600)
		popID := func(arg any) { popped = append(popped, *arg.(*rec)) }
		n := 0
		for op := 0; op < 600; op++ {
			if q.Len() > 0 && rng.Intn(3) == 0 {
				q.Step()
				continue
			}
			at := q.Now() + Time(rng.Intn(40))
			r := rec{at: at, seq: n, typed: rng.Intn(2) == 0}
			n++
			scheduled = append(scheduled, r)
			ids = append(ids, r)
			id := &ids[len(ids)-1]
			if r.typed {
				q.AtCall(at, popID, id)
			} else {
				q.At(at, func() { popped = append(popped, *id) })
			}
		}
		peak := q.Stats().PeakLen
		if got := len(q.pays); got > peak {
			t.Fatalf("trial %d: payload pool has %d slots for peak %d pending (slots not recycled)",
				trial, got, peak)
		}
		q.Run()
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
				t.Fatalf("trial %d: pop %d delivered payload %+v, key order says %+v",
					trial, i, popped[i], scheduled[i])
			}
		}
	}
}

// TestLastSeq pins the accessor network batching builds on: LastSeq
// advances exactly once per scheduled event.
func TestLastSeq(t *testing.T) {
	var q Queue
	s0 := q.LastSeq()
	q.At(9, func() {})
	q.At(4, func() {})
	if q.LastSeq() != s0+2 {
		t.Fatalf("LastSeq = %d after two schedules from %d", q.LastSeq(), s0)
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
