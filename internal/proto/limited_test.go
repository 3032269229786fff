package proto

import (
	"testing"

	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/netsim"
)

func limitedCfg(limit int) Config {
	return Config{Consistency: SC, SharerLimit: limit}
}

func TestLimitedDirEvictsOnOverflow(t *testing.T) {
	r := newRig(t, rigOpts{cfg: limitedCfg(2)})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.read(500, 1, a)
	res := r.read(1000, 2, a) // third sharer: one pointer must be evicted
	r.run()
	mustDone(t, "third read", res)
	// The grant waited for the eviction ack.
	if res.InvWait == 0 {
		t.Fatal("overflow grant did not wait for the eviction")
	}
	e, _ := r.home(a).Peek(a)
	if e.Sharers.Count() != 2 || !e.Sharers.Has(2) {
		t.Fatalf("sharers = %v, want 2 entries including node 2", e.Sharers)
	}
	// The evicted sharer (node 0, lowest-numbered) lost its copy.
	if _, hit := r.ccs[0].Cache().Peek(a); hit {
		t.Fatal("evicted sharer kept its copy")
	}
	if r.home(a).Stats().PointerOverflows != 1 {
		t.Fatalf("overflows = %d", r.home(a).Stats().PointerOverflows)
	}
	if r.net.Counts().ByKind[netsim.Inv] != 1 {
		t.Fatalf("Inv count = %d", r.net.Counts().ByKind[netsim.Inv])
	}
}

func TestLimitedDirNoOverflowUnderLimit(t *testing.T) {
	r := newRig(t, rigOpts{cfg: limitedCfg(4)})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.read(500, 1, a)
	r.read(1000, 2, a)
	r.run()
	if r.home(a).Stats().PointerOverflows != 0 {
		t.Fatal("overflow under the limit")
	}
}

func TestLimitedDirWriteStillInvalidatesAll(t *testing.T) {
	r := newRig(t, rigOpts{cfg: limitedCfg(2)})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.read(500, 1, a)
	r.read(1000, 2, a)            // evicts node 0
	res := r.write(3000, 0, a, 1) // node 0 writes: must invalidate 1 and 2
	r.run()
	mustDone(t, "write", res)
	for n := 1; n <= 2; n++ {
		if _, hit := r.ccs[n].Cache().Peek(a); hit {
			t.Fatalf("node %d copy survived the write", n)
		}
	}
	e, _ := r.home(a).Peek(a)
	if e.State != directory.Exclusive || e.Owner != 0 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestLimitedDirBadLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SharerLimit=1 did not panic")
		}
	}()
	newRig(t, rigOpts{cfg: limitedCfg(1)})
}

// Tear-off copies consume no pointers: under WC+DSI a limited directory
// overflows less.
func TestTearOffRelievesPointerPressure(t *testing.T) {
	base := newRig(t, rigOpts{cfg: Config{Consistency: WC, WriteBufferEntries: 16, SharerLimit: 2}})
	dsi := newRig(t, rigOpts{cfg: Config{Consistency: WC, WriteBufferEntries: 16, SharerLimit: 2,
		Policy: wcTearOffCfg().Policy}})
	a := blockHomedAt(3, 4, 0)
	run := func(r *rig) {
		// Write once to establish a version, then re-read from 3 nodes,
		// write, re-read: the second read round is tear-off under DSI.
		r.write(0, 1, a, 1)
		for round := 0; round < 3; round++ {
			base := event.Time(2000 + round*4000)
			for n := 0; n < 3; n++ {
				r.read(base+event.Time(n*500), n, a)
			}
			r.write(base+3000, 1, a, uint64(round+2))
		}
		r.run()
	}
	run(base)
	run(dsi)
	bo := base.home(a).Stats().PointerOverflows
	do := dsi.home(a).Stats().PointerOverflows
	if do >= bo {
		t.Fatalf("tear-off did not relieve pointer pressure: %d vs %d overflows", do, bo)
	}
}
