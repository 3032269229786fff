package proto

import (
	"testing"

	"dsisim/internal/core"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
)

// scTearOffCfg is SC with version-number DSI and Scheurich-style tear-off.
func scTearOffCfg() Config {
	return Config{Consistency: SC, Policy: core.Policy{
		Identifier: core.Versions, SCTearOff: true, UpgradeExemption: true}}
}

// An SC tear-off grant is untracked and the write after it needs no
// invalidation, exactly as under WC.
func TestSCTearOffUntracked(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scTearOffCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.write(1000, 1, a, 1)
	res := r.read(3000, 0, a) // version mismatch → marked → tear-off
	before := r.countsAt(4999)
	resW := r.write(5000, 1, a, 2)
	r.run()
	mustDone(t, "tear-off read", res)
	mustDone(t, "write", resW)
	f, hit := r.ccs[0].Cache().Peek(a)
	if !hit || !f.TearOff {
		t.Fatalf("frame = %+v (hit=%v), want tear-off", f, hit)
	}
	e, _ := r.home(a).Peek(a)
	if e.Sharers.Has(0) {
		t.Fatal("tear-off copy tracked")
	}
	diff := r.net.Counts().Sub(*before)
	if diff.Invalidation() != 0 {
		t.Fatalf("write after SC tear-off generated %d invalidation messages", diff.Invalidation())
	}
}

// The Scheurich condition: the tear-off copy dies at the holder's next
// cache miss.
func TestSCTearOffDiesAtNextMiss(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scTearOffCfg()})
	a := blockHomedAt(3, 4, 0)
	b := blockHomedAt(2, 4, 0)
	r.read(0, 0, a)
	r.write(1000, 1, a, 1)
	r.read(3000, 0, a) // tear-off copy of a
	r.read(5000, 0, b) // unrelated miss: must invalidate the tear-off copy
	r.run()
	if _, hit := r.ccs[0].Cache().Peek(a); hit {
		t.Fatal("tear-off copy survived a subsequent miss")
	}
}

// At most one tear-off copy per cache: a second tear-off grant displaces
// the first (and the grant itself is a miss anyway).
func TestSCTearOffSingleCopy(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scTearOffCfg()})
	a := blockHomedAt(3, 4, 0)
	b := blockHomedAt(3, 4, 1)
	// Build version history on both blocks for node 0 (SC: one outstanding
	// miss at a time per node).
	r.read(0, 0, a)
	r.read(500, 0, b)
	r.write(1000, 1, a, 1)
	r.write(2000, 1, b, 1)
	r.read(3000, 0, a) // tear-off #1
	r.read(5000, 0, b) // tear-off #2 (its miss also kills #1)
	r.run()
	if _, hit := r.ccs[0].Cache().Peek(a); hit {
		t.Fatal("first tear-off copy survived the second tear-off grant")
	}
	f, hit := r.ccs[0].Cache().Peek(b)
	if !hit || !f.TearOff {
		t.Fatalf("second tear-off copy = %+v (hit=%v)", f, hit)
	}
}

// Tear-off copies still flash-clear at sync points, so barrier-based
// producer-consumer stays correct (the machine-level workload tests cover
// the end-to-end behavior; this checks the protocol directly).
func TestSCTearOffFlushAtSync(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scTearOffCfg()})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.write(1000, 1, a, 1)
	r.read(3000, 0, a) // tear-off
	fl := r.flush(5000, 0)
	r.run()
	mustDone(t, "flush", fl)
	if fl.Done != 5000+TearOffFlash {
		t.Fatalf("flush took %d cycles, want flash clear (%d)", fl.Done-5000, TearOffFlash)
	}
	if _, hit := r.ccs[0].Cache().Peek(a); hit {
		t.Fatal("tear-off survived sync flush")
	}
}

// Cache-side identification marks re-fetched blocks without directory
// support: after two explicit invalidations, the third fetch self-marks and
// the eventual self-invalidation notification keeps the directory exact.
func TestCacheSideIdentification(t *testing.T) {
	cfg := Config{Consistency: SC, Policy: core.Policy{
		History: 16,
	}}
	r := newRig(t, rigOpts{cfg: cfg})
	a := blockHomedAt(3, 4, 0)
	// Two read-invalidate rounds to build history at node 0.
	for i := 0; i < 2; i++ {
		r.read(event.Time(i*2000), 0, a)
		r.write(event.Time(i*2000+1000), 1, a, uint64(i+1))
	}
	res := r.read(4000, 0, a) // third fetch: history marks it locally
	fl := r.flush(5000, 0)
	r.run()
	mustDone(t, "read", res)
	mustDone(t, "flush", fl)
	if r.ccs[0].Stats().CacheSideMarked != 1 {
		t.Fatalf("cache-side marked = %d, want 1", r.ccs[0].Stats().CacheSideMarked)
	}
	if _, hit := r.ccs[0].Cache().Peek(a); hit {
		t.Fatal("locally marked block survived the flush")
	}
	if r.net.Counts().ByKind[netsim.SInvNotify] != 1 {
		t.Fatal("self-invalidation notification missing")
	}
	e, _ := r.home(a).Peek(a)
	if e.Sharers.Has(0) {
		t.Fatal("directory still tracks the self-invalidated copy")
	}
}

// The naive flush pays a full cache scan at every sync point.
func TestNaiveFlushLatency(t *testing.T) {
	cfg := Config{Consistency: SC, Policy: core.Policy{
		Identifier: core.Versions,
		NaiveScan:  true,
	}}
	r := newRig(t, rigOpts{cfg: cfg, cacheBytes: 32 * mem.BlockSize, assoc: 4})
	fl := r.flush(100, 0) // nothing marked: still scans all 32 frames
	r.run()
	mustDone(t, "flush", fl)
	if fl.Done != 100+32 {
		t.Fatalf("naive flush took %d cycles, want 32 (full scan)", fl.Done-100)
	}
}
