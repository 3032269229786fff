package proto

import (
	"testing"

	"dsisim/internal/core"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
)

// A remote reader re-reading a block that was modified in between gets a
// marked copy under the version scheme.
func TestVersionsMarkReadAfterConflict(t *testing.T) {
	r := newRig(t, rigOpts{cfg: dsiCfg(core.Versions)})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)           // node 0 reads (version 0)
	r.write(1000, 1, a, 1)    // node 1 writes: invalidates node 0, version 1
	res := r.read(2000, 0, a) // node 0 re-reads, echoing version 0
	r.run()
	mustDone(t, "re-read", res)
	f, hit := r.ccs[0].Cache().Peek(a)
	if !hit || !f.SI {
		t.Fatalf("re-read copy not marked: %+v (hit=%v)", f, hit)
	}
	if !f.HasVer || f.Ver != 1 {
		t.Fatalf("copy version = %d/%v, want 1", f.Ver, f.HasVer)
	}
}

// A first-time reader (no version to echo) gets a normal block.
func TestVersionsFirstReadUnmarked(t *testing.T) {
	r := newRig(t, rigOpts{cfg: dsiCfg(core.Versions)})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 1, a, 1)
	res := r.read(1000, 0, a)
	r.run()
	mustDone(t, "read", res)
	f, _ := r.ccs[0].Cache().Peek(a)
	if f.SI {
		t.Fatal("first read was marked despite no version echo")
	}
}

// The states scheme marks any read served from Exclusive, even first-timers.
func TestStatesMarkReadFromExclusive(t *testing.T) {
	r := newRig(t, rigOpts{cfg: dsiCfg(core.States)})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 1, a, 1)
	r.read(1000, 0, a)
	res2 := r.read(1001, 2, a) // second reader: Shared_SI keeps marking
	r.run()
	mustDone(t, "read2", res2)
	f0, _ := r.ccs[0].Cache().Peek(a)
	f2, _ := r.ccs[2].Cache().Peek(a)
	if !f0.SI || !f2.SI {
		t.Fatalf("states scheme: SI flags = %v,%v; want both marked", f0.SI, f2.SI)
	}
	e, _ := r.home(a).Peek(a)
	if e.State != directory.SharedSI {
		t.Fatalf("dir state = %v, want Shared_SI", e.State)
	}
}

// Home-node copies are never marked (paper §4.1 special case).
func TestHomeNodeNeverMarked(t *testing.T) {
	r := newRig(t, rigOpts{cfg: dsiCfg(core.States)})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 0, a, 1)
	res := r.read(1000, 3, a) // node 3 is the home
	r.run()
	mustDone(t, "home read", res)
	f, _ := r.ccs[3].Cache().Peek(a)
	if f.SI {
		t.Fatal("home-node copy was marked for self-invalidation")
	}
}

// Self-invalidation at a sync point sends notifications and moves the
// directory to the DSI idle states.
func TestSyncFlushNotifiesAndSetsIdleS(t *testing.T) {
	r := newRig(t, rigOpts{cfg: dsiCfg(core.States)})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 1, a, 1)
	r.read(1000, 0, a) // marked (served from Exclusive; recall downgrades node 1)
	fl := r.flush(2000, 0)
	r.run()
	mustDone(t, "flush", fl)
	if _, hit := r.ccs[0].Cache().Peek(a); hit {
		t.Fatal("marked block survived the sync flush")
	}
	c := r.net.Counts()
	if c.ByKind[netsim.SInvNotify] != 1 {
		t.Fatalf("SInvNotify = %d, want 1", c.ByKind[netsim.SInvNotify])
	}
	e, _ := r.home(a).Peek(a)
	// Node 1 still holds a downgraded shared copy, so the block is not yet
	// idle; it stays in its shared flavor.
	if !e.State.IsShared() || !e.Sharers.Only(1) {
		t.Fatalf("dir entry = state=%v sharers=%v", e.State, e.Sharers)
	}
}

func TestSyncFlushLastSharerEntersIdleS(t *testing.T) {
	r := newRig(t, rigOpts{cfg: dsiCfg(core.States)})
	a := blockHomedAt(1, 4, 0)
	r.write(0, 0, a, 1)
	// Node 0 self-invalidates its exclusive copy at a sync point.
	fl := r.flush(1000, 0)
	r.run()
	mustDone(t, "flush", fl)
	_ = fl
	// Exclusive marked? No: node 0 is not home; was the block marked?
	// Writes from Idle are unmarked, so nothing was flushed. Set up a
	// genuinely marked exclusive instead below.
	r2 := newRig(t, rigOpts{cfg: dsiCfg(core.States)})
	b := blockHomedAt(1, 4, 1)
	r2.write(0, 0, b, 1)    // node 0 exclusive (unmarked)
	r2.write(1000, 2, b, 2) // node 2 takes it exclusive: marked (from Exclusive)
	fl2 := r2.flush(2000, 2)
	r2.run()
	mustDone(t, "flush2", fl2)
	c := r2.net.Counts()
	if c.ByKind[netsim.SInvWB] != 1 {
		t.Fatalf("SInvWB = %d, want 1", c.ByKind[netsim.SInvWB])
	}
	e, _ := r2.home(b).Peek(b)
	if e.State != directory.IdleX {
		t.Fatalf("dir state = %v, want Idle_X", e.State)
	}
	// The self-invalidated dirty data reached home.
	if v := r2.home(b).HomeValue(b); v.Writer != 2 || v.Seq != 2 {
		t.Fatalf("home memory = %v", v)
	}
}

// After self-invalidation, the next write finds the block idle: no
// invalidation wait at all — the core effect of DSI.
func TestDSIEliminatesInvalidationWait(t *testing.T) {
	r := newRig(t, rigOpts{cfg: dsiCfg(core.Versions)})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 1, a, 1)
	r.read(1000, 0, a)            // unmarked (first read, no echo)...
	r.write(2000, 1, a, 2)        // node 1 writes again (invalidates node 0)
	r.read(3000, 0, a)            // node 0 re-reads: marked (version mismatch)
	fl := r.flush(4000, 0)        // node 0 self-invalidates at a sync point
	res := r.write(5000, 1, a, 3) // node 1's next write: nobody to invalidate
	r.run()
	mustDone(t, "flush", fl)
	mustDone(t, "final write", res)
	if res.InvWait != 0 {
		t.Fatalf("write after self-invalidation waited %d cycles on invalidations", res.InvWait)
	}
	if !res.Hit && res.Done-5000 > 250 {
		t.Fatalf("write latency %d suggests an invalidation round trip", res.Done-5000)
	}
}

// The upgrade exemption: under SC, a lone sharer upgrading is never marked.
func TestSCUpgradeExemption(t *testing.T) {
	r := newRig(t, rigOpts{cfg: dsiCfg(core.States)})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 0, a, 1)
	r.read(1000, 1, a) // node 1: marked shared copy (from Exclusive), recall 0
	r.flush(2000, 1)   // node 1 self-invalidates; sharers = {0}
	// Node 0 (lone remaining sharer, downgraded by the recall) upgrades.
	res := r.write(3000, 0, a, 2)
	r.run()
	mustDone(t, "upgrade", res)
	f, _ := r.ccs[0].Cache().Peek(a)
	if f.SI {
		t.Fatal("lone upgrade was marked despite the SC exemption")
	}
}

// Replacement of a marked block enters Idle_SI, which keeps marking.
func TestReplacedMarkedBlockEntersIdleSI(t *testing.T) {
	r := newRig(t, rigOpts{cfg: dsiCfg(core.States), cacheBytes: mem.BlockSize, assoc: 1})
	a := blockHomedAt(1, 4, 0)
	b := blockHomedAt(1, 4, 1)
	r.write(0, 2, a, 1)
	r.read(1000, 0, a) // marked copy at node 0 (recall downgrades node 2)
	r.read(2000, 2, b) // node 2's (unmarked) copy of a is displaced first
	r.read(3000, 0, b) // node 0's marked copy displaced last: Repl with SI
	r.run()
	e, _ := r.home(a).Peek(a)
	if e.State != directory.IdleSI {
		t.Fatalf("dir state = %v, want Idle_SI", e.State)
	}
	// An Idle entry whose last drop was an unmarked copy stays plain Idle:
	// rerun with the displacement order reversed.
	r2 := newRig(t, rigOpts{cfg: dsiCfg(core.States), cacheBytes: mem.BlockSize, assoc: 1})
	r2.write(0, 2, a, 1)
	r2.read(1000, 0, a)
	r2.read(2000, 0, b) // marked copy out first
	r2.read(3000, 2, b) // unmarked copy out last
	r2.run()
	e2, _ := r2.home(a).Peek(a)
	if e2.State != directory.Idle {
		t.Fatalf("dir state = %v, want Idle (last replaced copy was unmarked)", e2.State)
	}
}

// Version numbers survive invalidation in the cache and are echoed on the
// next miss; the FIFO mechanism self-invalidates on displacement.
func TestFIFOMechanismDisplacesEarly(t *testing.T) {
	cfg := Config{
		Consistency: SC,
		Policy: core.Policy{
			Identifier:       core.Versions,
			FIFO:             2,
			UpgradeExemption: true,
		},
	}
	r := newRig(t, rigOpts{cfg: cfg})
	// Three blocks homed at node 3, all modified by node 1 then re-read by
	// node 0 so they arrive marked; FIFO capacity 2 forces the first out.
	blocks := []mem.Addr{blockHomedAt(3, 4, 0), blockHomedAt(3, 4, 1), blockHomedAt(3, 4, 2)}
	tm := event.Time(0)
	for _, b := range blocks {
		r.read(tm, 0, b)
		r.write(tm+1000, 1, b, 1)
		tm += 2000
	}
	for _, b := range blocks {
		r.read(tm, 0, b) // marked re-reads
		tm += 2000
	}
	r.run()
	// The first marked block was displaced from the FIFO and invalidated.
	if _, hit := r.ccs[0].Cache().Peek(blocks[0]); hit {
		t.Fatal("FIFO did not displace the oldest marked block")
	}
	if _, hit := r.ccs[0].Cache().Peek(blocks[2]); !hit {
		t.Fatal("newest marked block should still be cached")
	}
	if d := r.ccs[0].FIFODisplacements(); d != 1 {
		t.Fatalf("displacements = %d, want 1", d)
	}
	if r.net.Counts().ByKind[netsim.SInvNotify] != 1 {
		t.Fatalf("SInvNotify = %d, want 1", r.net.Counts().ByKind[netsim.SInvNotify])
	}
}

// Marked exclusive blocks flushed at a sync point carry their data home.
func TestFlushedExclusiveDataIntegrity(t *testing.T) {
	r := newRig(t, rigOpts{cfg: dsiCfg(core.Versions)})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.write(1000, 1, a, 1)
	r.write(2000, 0, a, 2) // node 0 writes: version mismatch → marked exclusive
	fl := r.flush(3000, 0)
	res := r.read(4000, 2, a)
	r.run()
	mustDone(t, "flush", fl)
	mustDone(t, "read", res)
	if res.Value.Writer != 0 || res.Value.Seq != 2 {
		t.Fatalf("read after exclusive self-invalidation = %v, want w0#2", res.Value)
	}
	if res.InvWait != 0 {
		t.Fatalf("read waited %d on invalidation despite self-invalidation", res.InvWait)
	}
}
