package proto

import (
	"testing"

	"dsisim/internal/cache"
	"dsisim/internal/core"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
)

// wcTearOffCfg is WC with DSI (version numbers) and tear-off blocks, the
// configuration of §5.3 / Table 3.
func wcTearOffCfg() Config {
	return Config{
		Consistency:        WC,
		WriteBufferEntries: 16,
		Policy:             core.Policy{Identifier: core.Versions, TearOff: true},
	}
}

func TestWCStoreIsBufferedNotStalled(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcCfg()})
	a := blockHomedAt(3, 4, 0)
	res := r.write(0, 0, a, 1)
	r.run()
	mustDone(t, "store", res)
	// The store is accepted as soon as the entry allocates (same cycle).
	if res.Done != 0 {
		t.Fatalf("buffered store accepted at %d, want 0", res.Done)
	}
	// The write buffer eventually drains.
	if !r.ccs[0].WBEmpty() {
		t.Fatal("write buffer did not drain")
	}
	f, ok := r.ccs[0].Cache().Peek(a)
	if !ok || f.State != cache.Exclusive || f.Data.Seq != 1 {
		t.Fatalf("frame = %+v", f)
	}
}

func TestWCCoalescing(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcCfg()})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 0, a, 1)
	res2 := r.write(1, 0, a, 2) // merges into the outstanding entry
	r.run()
	mustDone(t, "second store", res2)
	if res2.Done != 1 {
		t.Fatalf("coalesced store accepted at %d, want 1", res2.Done)
	}
	st := r.ccs[0].Stats()
	if st.WriteMisses != 1 {
		t.Fatalf("write misses = %d, want 1 (coalesced)", st.WriteMisses)
	}
	f, _ := r.ccs[0].Cache().Peek(a)
	if f.Data.Seq != 2 {
		t.Fatalf("merged data = %v, want seq 2", f.Data)
	}
}

func TestWCParallelGrantAndFinalAck(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.read(0, 1, a)
	// Node 2 stores: the directory grants in parallel with invalidating the
	// two sharers and later forwards one FinalAck.
	r.write(2000, 2, a, 1)
	r.run()
	c := r.net.Counts()
	if c.ByKind[netsim.FinalAck] != 1 {
		t.Fatalf("FinalAck = %d, want 1", c.ByKind[netsim.FinalAck])
	}
	if c.ByKind[netsim.Inv] != 2 || c.ByKind[netsim.InvAck] != 2 {
		t.Fatalf("invalidation traffic = Inv %d InvAck %d", c.ByKind[netsim.Inv], c.ByKind[netsim.InvAck])
	}
	if !r.ccs[2].WBEmpty() {
		t.Fatal("entry not retired after FinalAck")
	}
	e, _ := r.home(a).Peek(a)
	if e.State != directory.Exclusive || e.Owner != 2 {
		t.Fatalf("dir entry = %+v", e)
	}
}

// The parallel grant arrives before the acks are collected: measure that
// the data reply does not wait for the invalidation round trip.
func TestWCGrantDoesNotWaitForAcks(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.read(0, 1, a)
	// Track when the data lands by reading our own write afterwards.
	var dataAt event.Time = -1
	r.at(2000, func() {
		r.ccs[2].Write(a, Store{Writer: 2, Seq: 1}, func(*Result) {})
	})
	// Poll: the frame appears when DataX arrives.
	var poll func()
	poll = func() {
		if f, ok := r.ccs[2].Cache().Peek(a); ok && f.State == cache.Exclusive {
			dataAt = r.q.Now()
			return
		}
		r.q.After(1, poll)
	}
	r.at(2001, poll)
	r.run()
	if dataAt < 0 {
		t.Fatal("data never arrived")
	}
	// GetX: 3+3+100 → dir at 2106, +10 → grant sent 2116, +11+100 → 2227.
	// Waiting for the two invalidation round trips would add ≥ 200 more.
	if dataAt > 2300 {
		t.Fatalf("DataX arrived at %d; the grant seems to have waited for acks", dataAt)
	}
}

func TestWCWriteBufferFullStalls(t *testing.T) {
	cfg := Config{Consistency: WC, WriteBufferEntries: 2}
	r := newRig(t, rigOpts{cfg: cfg})
	// Three distinct blocks, all homed remotely.
	a0, a1, a2 := blockHomedAt(3, 4, 0), blockHomedAt(3, 4, 1), blockHomedAt(3, 4, 2)
	r.write(0, 0, a0, 1)
	r.write(0, 0, a1, 1)
	res := r.write(0, 0, a2, 1) // buffer full: must wait for a retire
	r.run()
	mustDone(t, "third store", res)
	if res.WBFullWait == 0 {
		t.Fatal("third store did not report a wb-full wait")
	}
	if res.Done == 0 {
		t.Fatal("third store accepted immediately despite a full buffer")
	}
	if r.ccs[0].Stats().WBFullStalls != 1 {
		t.Fatalf("WBFullStalls = %d, want 1", r.ccs[0].Stats().WBFullStalls)
	}
}

func TestWCReadWaitsForOutstandingWrite(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcCfg()})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 0, a, 1)
	res := r.read(1, 0, a) // same block, data not yet arrived
	r.run()
	mustDone(t, "read", res)
	if !res.WBRead {
		t.Fatal("read did not report a wb-read stall")
	}
	if res.Value.Seq != 1 {
		t.Fatalf("read value = %v, want the buffered store", res.Value)
	}
	if res.Done <= 200 {
		t.Fatalf("read completed at %d, before the write's data could arrive", res.Done)
	}
}

func TestWCDrain(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcCfg()})
	a := blockHomedAt(3, 4, 0)
	b := blockHomedAt(3, 4, 1)
	r.write(0, 0, a, 1)
	r.write(0, 0, b, 1)
	var drained event.Time = -1
	r.at(1, func() { r.ccs[0].DrainWB(func() { drained = r.q.Now() }) })
	r.run()
	if drained < 0 {
		t.Fatal("drain never completed")
	}
	if drained < 200 {
		t.Fatalf("drain at %d, before the misses could round-trip", drained)
	}
	// Draining an empty buffer completes synchronously.
	ran := false
	r.at(drained+100, func() { r.ccs[0].DrainWB(func() { ran = true }) })
	r.run()
	if !ran {
		t.Fatal("drain of empty buffer did not run synchronously")
	}
}

func TestWCSwapWaitsForFinalAck(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.read(0, 1, a)
	res := r.swap(2000, 2, a, 1, 1)
	r.run()
	mustDone(t, "swap", res)
	// The swap must not complete before the invalidation acks round-trip:
	// grant at ≈2227, acks collected ≈2322, FinalAck ≈2425.
	if res.Done < 2400 {
		t.Fatalf("swap completed at %d, before the FinalAck", res.Done)
	}
	if res.OldWord != 0 {
		t.Fatalf("swap old word = %d", res.OldWord)
	}
}

// --- tear-off blocks ---------------------------------------------------------

func TestTearOffGrantIsUntracked(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcTearOffCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)           // version 0, tracked (no echo → unmarked)
	r.write(1000, 1, a, 1)    // bump to version 1, invalidate node 0
	res := r.read(3000, 0, a) // echo 0 ≠ 1: marked → tear-off
	r.run()
	mustDone(t, "tear-off read", res)
	f, ok := r.ccs[0].Cache().Peek(a)
	if !ok || !f.SI || !f.TearOff {
		t.Fatalf("frame = %+v, want marked tear-off", f)
	}
	e, _ := r.home(a).Peek(a)
	if e.Sharers.Has(0) {
		t.Fatal("tear-off copy was tracked in the sharer set")
	}
	if !e.TearOffOut {
		t.Fatal("tear-off grant not recorded in the entry")
	}
}

// A write after a tear-off grant needs no invalidation: the core message
// saving of §5.3.
func TestTearOffEliminatesInvalidationMessages(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcTearOffCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.write(1000, 1, a, 1)
	r.read(3000, 0, a) // tear-off copy at node 0
	before := r.countsAt(4999)
	r.write(5000, 1, a, 2) // upgrade; tear-off copy not invalidated
	r.run()
	diff := r.net.Counts().Sub(*before)
	if diff.Invalidation() != 0 {
		t.Fatalf("write after tear-off generated %d invalidation messages", diff.Invalidation())
	}
	// The stale tear-off copy is still readable at node 0 (weak ordering
	// allows it until node 0's next sync point).
	f, hit := r.ccs[0].Cache().Peek(a)
	if !hit || f.Data.Seq != 1 {
		t.Fatalf("tear-off copy = %+v (hit=%v), want stale seq 1", f, hit)
	}
}

// Tear-off copies die silently at sync points: one-cycle flash clear, no
// messages.
func TestTearOffFlashClearAtSync(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcTearOffCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.write(1000, 1, a, 1)
	r.read(3000, 0, a) // tear-off
	before := r.countsAt(4999)
	fl := r.flush(5000, 0)
	afterFlush := r.countsAt(5500)
	r.run()
	mustDone(t, "flush", fl)
	if fl.Done != 5000+TearOffFlash {
		t.Fatalf("flash clear took %d cycles, want %d", fl.Done-5000, TearOffFlash)
	}
	diff := afterFlush.Sub(*before)
	if diff.Total() != 0 {
		t.Fatalf("tear-off flush sent %d messages", diff.Total())
	}
	if _, hit := r.ccs[0].Cache().Peek(a); hit {
		t.Fatal("tear-off copy survived the sync flush")
	}
	// After the flush the node re-reads and sees the new data.
	res := r.read(6000, 0, a)
	r.run()
	mustDone(t, "re-read", res)
	if res.Value.Seq != 1 {
		t.Fatalf("re-read = %v, want seq 1", res.Value)
	}
}

// Tear-off evictions are silent too (the directory has no record to clean).
func TestTearOffEvictionSilent(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcTearOffCfg(), cacheBytes: mem.BlockSize, assoc: 1})
	a := blockHomedAt(1, 4, 0)
	b := blockHomedAt(1, 4, 1)
	r.read(0, 0, a)
	r.write(1000, 2, a, 1)
	r.read(3000, 0, a) // tear-off copy
	before := r.countsAt(4999)
	r.read(5000, 0, b) // displaces the tear-off copy
	r.run()
	diff := r.net.Counts().Sub(*before)
	if diff.ByKind[netsim.Repl] != 0 {
		t.Fatal("tear-off eviction sent a replacement hint")
	}
}

// WC + DSI marks exclusive blocks without the upgrade exemption.
func TestWCNoUpgradeExemption(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcTearOffCfg()})
	a := blockHomedAt(3, 4, 0)
	// Build read-by-two history so the upgrade is marked.
	r.read(0, 0, a)
	r.read(0, 1, a)
	r.write(2000, 0, a, 1) // upgrade by node 0, other sharer node 1
	r.run()
	f, ok := r.ccs[0].Cache().Peek(a)
	if !ok || f.State != cache.Exclusive {
		t.Fatalf("frame = %+v", f)
	}
	if !f.SI {
		t.Fatal("WC upgrade with read-by-two history not marked")
	}
	if f.TearOff {
		t.Fatal("exclusive grant handed out as tear-off")
	}
}

// Exclusive self-invalidation under WC still notifies home with data.
func TestWCExclusiveSelfInvalidation(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcTearOffCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.read(0, 1, a)
	r.write(2000, 0, a, 5) // marked exclusive (read by two)
	fl := r.flush(4000, 0)
	r.run()
	mustDone(t, "flush", fl)
	if r.net.Counts().ByKind[netsim.SInvWB] != 1 {
		t.Fatalf("SInvWB = %d, want 1", r.net.Counts().ByKind[netsim.SInvWB])
	}
	if v := r.home(a).HomeValue(a); v.Seq != 5 {
		t.Fatalf("home memory = %v", v)
	}
}

// The requester gives up a block before its FinalAck arrives (eviction
// pressure); the directory must return the entry to idle.
func TestWCRequesterDropsBeforeFinalAck(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcCfg(), cacheBytes: mem.BlockSize, assoc: 1})
	a := blockHomedAt(1, 4, 0)
	b := blockHomedAt(1, 4, 1)
	// Two sharers so the grant is Pending.
	r.read(0, 2, a)
	r.read(0, 3, a)
	r.write(2000, 0, a, 1)
	// DataX lands ≈2227; evict immediately after, while acks still fly.
	r.read(2250, 0, b)
	r.run()
	if !r.ccs[0].WBEmpty() {
		t.Fatal("write buffer never drained")
	}
	e, _ := r.home(a).Peek(a)
	if e.State != directory.Idle {
		t.Fatalf("dir state = %v, want Idle after the requester dropped", e.State)
	}
	if v := r.home(a).HomeValue(a); v.Seq != 1 {
		t.Fatalf("home memory lost the dropped write: %v", v)
	}
	// The block is freshly usable.
	res := r.read(10000, 2, a)
	r.run()
	mustDone(t, "re-read", res)
	if res.Value.Seq != 1 {
		t.Fatalf("re-read = %v", res.Value)
	}
}
