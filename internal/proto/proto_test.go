package proto

import (
	"testing"

	"dsisim/internal/cache"
	"dsisim/internal/directory"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
)

// blockHomedAt returns an address homed at the given node (unallocated
// addresses interleave by block index). idx picks distinct blocks.
func blockHomedAt(node, nodes, idx int) mem.Addr {
	return mem.Addr((node + idx*nodes) * mem.BlockSize)
}

func TestSCReadMissFromIdleTiming(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(1, 4, 0)
	res := r.read(0, 0, a)
	r.run()
	mustDone(t, "read", res)
	// 3 (cache ctrl) + 3 (inject) + 100 (net) + 10 (dir) + 11 (inject data)
	// + 100 (net) = 227.
	if res.Done != 227 {
		t.Fatalf("read latency = %d, want 227", res.Done)
	}
	if res.Hit || res.InvWait != 0 {
		t.Fatalf("res = %+v", res)
	}
	e, ok := r.home(a).Peek(a)
	if !ok || e.State != directory.Shared || !e.Sharers.Only(0) {
		t.Fatalf("dir entry = %+v", e)
	}
}

func TestSCReadHitAfterFill(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(1, 4, 0)
	r.read(0, 0, a)
	res := r.read(1000, 0, a)
	r.run()
	if !res.Hit || res.Done != 1000 {
		t.Fatalf("second read = %+v, want synchronous hit", res)
	}
}

func TestSCLocalMissSkipsNetwork(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(2, 4, 0) // homed at the requester itself
	res := r.read(0, 2, a)
	r.run()
	// 3 (cache ctrl) + 1 (local delivery) + 10 (dir) + 1 (local delivery).
	if res.Done != 15 {
		t.Fatalf("local read latency = %d, want 15", res.Done)
	}
	if r.net.Counts().Total() != 0 {
		t.Fatal("local miss generated network messages")
	}
}

func TestSCWriteMissInvalidatesSharers(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.read(0, 1, a)
	res := r.write(1000, 2, a, 1)
	r.run()
	mustDone(t, "write", res)
	e, _ := r.home(a).Peek(a)
	if e.State != directory.Exclusive || e.Owner != 2 {
		t.Fatalf("dir entry = %+v", e)
	}
	for n := 0; n <= 1; n++ {
		if _, hit := r.ccs[n].Cache().Peek(a); hit {
			t.Fatalf("node %d copy survived invalidation", n)
		}
	}
	f, hit := r.ccs[2].Cache().Peek(a)
	if !hit || f.State != cache.Exclusive || f.Data.Writer != 2 {
		t.Fatalf("writer frame = %+v (hit=%v)", f, hit)
	}
	// The write stalled for the invalidation round trip: InvWait covers
	// Inv injection + flight + ack injection + flight ≈ 206 for 2 sharers
	// (injections serialize: 3+3, then acks overlap).
	if res.InvWait <= 200 {
		t.Fatalf("InvWait = %d, want > 200", res.InvWait)
	}
	c := r.net.Counts()
	if c.ByKind[netsim.Inv] != 2 || c.ByKind[netsim.InvAck] != 2 {
		t.Fatalf("inv traffic = %+v", c)
	}
}

func TestSCReadRecallsExclusive(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 0, a, 7)
	res := r.read(1000, 1, a)
	r.run()
	mustDone(t, "read", res)
	if res.Value.Writer != 0 || res.Value.Seq != 7 {
		t.Fatalf("read value = %v, want w0#7", res.Value)
	}
	if res.InvWait <= 200 {
		t.Fatalf("recall InvWait = %d, want > 200", res.InvWait)
	}
	e, _ := r.home(a).Peek(a)
	if e.State != directory.Shared || !e.Sharers.Has(0) || !e.Sharers.Has(1) {
		t.Fatalf("dir entry = %+v", e)
	}
	// Old owner was downgraded, not invalidated.
	f, hit := r.ccs[0].Cache().Peek(a)
	if !hit || f.State != cache.Shared {
		t.Fatalf("owner frame = %+v", f)
	}
	// The home memory now has the recalled data.
	if v := r.home(a).HomeValue(a); v.Writer != 0 || v.Seq != 7 {
		t.Fatalf("home memory = %v", v)
	}
}

func TestSCWriteToExclusiveTransfersOwnership(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 0, a, 1)
	res := r.write(1000, 1, a, 2)
	r.run()
	mustDone(t, "write", res)
	e, _ := r.home(a).Peek(a)
	if e.State != directory.Exclusive || e.Owner != 1 {
		t.Fatalf("dir entry = %+v", e)
	}
	if _, hit := r.ccs[0].Cache().Peek(a); hit {
		t.Fatal("old owner copy survived")
	}
	c := r.net.Counts()
	if c.ByKind[netsim.InvAckData] != 1 {
		t.Fatalf("expected one InvAckData, got %+v", c.ByKind)
	}
	// The new owner's data reflects its own write.
	f, _ := r.ccs[1].Cache().Peek(a)
	if f.Data.Writer != 1 || f.Data.Seq != 2 {
		t.Fatalf("new owner data = %v", f.Data)
	}
}

func TestSCUpgradeUsesAckX(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	res := r.write(1000, 0, a, 5)
	r.run()
	mustDone(t, "upgrade", res)
	c := r.net.Counts()
	if c.ByKind[netsim.Upgrade] != 1 || c.ByKind[netsim.AckX] != 1 {
		t.Fatalf("upgrade traffic: Upgrade=%d AckX=%d", c.ByKind[netsim.Upgrade], c.ByKind[netsim.AckX])
	}
	if c.ByKind[netsim.DataX] != 0 {
		t.Fatal("upgrade was served with data")
	}
	f, _ := r.ccs[0].Cache().Peek(a)
	if f.State != cache.Exclusive || f.Data.Seq != 5 {
		t.Fatalf("frame = %+v", f)
	}
}

func TestSCUpgradeWithOtherSharersWaitsForAcks(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.read(0, 1, a)
	res := r.write(1000, 0, a, 3)
	r.run()
	mustDone(t, "upgrade", res)
	if res.InvWait <= 0 {
		t.Fatal("upgrade with other sharers had no invalidation wait")
	}
	if _, hit := r.ccs[1].Cache().Peek(a); hit {
		t.Fatal("other sharer survived")
	}
}

func TestSCSwapAtomicExchange(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(3, 4, 0)
	s1 := r.swap(0, 0, a, 1, 1)
	s2 := r.swap(5000, 1, a, 1, 1)
	r.run()
	mustDone(t, "swap1", s1)
	mustDone(t, "swap2", s2)
	if s1.OldWord != 0 {
		t.Fatalf("first swap old = %d, want 0 (lock acquired)", s1.OldWord)
	}
	if s2.OldWord != 1 {
		t.Fatalf("second swap old = %d, want 1 (lock held)", s2.OldWord)
	}
}

func TestSCSwapHitWhenOwned(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(3, 4, 0)
	r.swap(0, 0, a, 1, 1)
	res := r.swap(5000, 0, a, 0, 2) // release: still exclusive, pure hit
	r.run()
	if !res.Hit || res.OldWord != 1 {
		t.Fatalf("owned swap = %+v", res)
	}
}

func TestWritebackOnEviction(t *testing.T) {
	// One-set, one-way cache: the second block displaces the first.
	r := newRig(t, rigOpts{cfg: scCfg(), cacheBytes: mem.BlockSize, assoc: 1})
	a := blockHomedAt(1, 4, 0)
	b := blockHomedAt(1, 4, 1)
	r.write(0, 0, a, 9)
	r.read(5000, 0, b)
	r.run()
	c := r.net.Counts()
	if c.ByKind[netsim.WB] != 1 {
		t.Fatalf("WB count = %d, want 1", c.ByKind[netsim.WB])
	}
	if v := r.home(a).HomeValue(a); v.Writer != 0 || v.Seq != 9 {
		t.Fatalf("home memory after WB = %v", v)
	}
	e, _ := r.home(a).Peek(a)
	if !e.State.IsIdle() {
		t.Fatalf("dir state after WB = %v", e.State)
	}
}

func TestSharedReplacementHint(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg(), cacheBytes: mem.BlockSize, assoc: 1})
	a := blockHomedAt(1, 4, 0)
	b := blockHomedAt(1, 4, 1)
	r.read(0, 0, a)
	r.read(5000, 0, b)
	r.run()
	c := r.net.Counts()
	if c.ByKind[netsim.Repl] != 1 {
		t.Fatalf("Repl count = %d, want 1", c.ByKind[netsim.Repl])
	}
	e, _ := r.home(a).Peek(a)
	if !e.State.IsIdle() {
		t.Fatalf("dir state after Repl = %v", e.State)
	}
}

// The classic race: the owner writes back while the directory is recalling
// its copy. The WB must be consumed as the recall data and the stale ack
// must complete the transaction.
func TestWritebackRacesRecall(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg(), cacheBytes: mem.BlockSize, assoc: 1})
	a := blockHomedAt(1, 4, 0) // homed at node 1
	b := blockHomedAt(1, 4, 1)
	r.write(0, 0, a, 4)
	// Node 2's read arrives at the home around t=216 and sends a Recall.
	// Node 0 evicts the block at t=330, while the Recall is in flight.
	res := r.read(100, 2, a)
	r.read(330, 0, b)
	r.run()
	mustDone(t, "racing read", res)
	if res.Value.Writer != 0 || res.Value.Seq != 4 {
		t.Fatalf("read got %v, want the written-back data w0#4", res.Value)
	}
	if v := r.home(a).HomeValue(a); v.Seq != 4 {
		t.Fatalf("home memory = %v", v)
	}
	e, _ := r.home(a).Peek(a)
	if !e.State.IsShared() || !e.Sharers.Has(2) {
		t.Fatalf("dir entry after race = state=%v sharers=%v", e.State, e.Sharers)
	}
}

// Replacement hint racing an invalidation: the sharer replaces its copy,
// then the directory (serving a write) invalidates it; the unconditional
// ack keeps the count correct and the stale hint is dropped.
func TestReplacementRacesInvalidation(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg(), cacheBytes: mem.BlockSize, assoc: 1})
	a := blockHomedAt(1, 4, 0)
	b := blockHomedAt(1, 4, 1)
	r.read(0, 0, a)
	// Write from node 2 processed at home ≈ t=316; Inv heads to node 0.
	// Node 0 replaces the block at t=330 before the Inv lands.
	res := r.write(200, 2, a, 6)
	r.read(330, 0, b)
	r.run()
	mustDone(t, "write", res)
	e, _ := r.home(a).Peek(a)
	if e.State != directory.Exclusive || e.Owner != 2 {
		t.Fatalf("dir entry = %+v", e)
	}
}

func TestQueuedRequestsServeInOrder(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 0, a, 1)
	// Two requests race while the home is busy recalling node 0's copy.
	res1 := r.read(1000, 1, a)
	res2 := r.write(1001, 2, a, 2)
	r.run()
	mustDone(t, "read", res1)
	mustDone(t, "write", res2)
	if res1.Done >= res2.Done {
		t.Fatalf("queued write finished before earlier read: %d vs %d", res2.Done, res1.Done)
	}
	e, _ := r.home(a).Peek(a)
	if e.State != directory.Exclusive || e.Owner != 2 {
		t.Fatalf("final dir entry = %+v", e)
	}
	if r.home(a).Stats().Queued == 0 {
		t.Fatal("no request was queued")
	}
}

func TestDirStatsCount(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.write(1000, 1, a, 1)
	r.run()
	st := r.home(a).Stats()
	if st.Requests != 2 {
		t.Fatalf("requests = %d, want 2", st.Requests)
	}
	if st.Invalidates != 1 {
		t.Fatalf("invalidates = %d, want 1", st.Invalidates)
	}
}
