package proto

import (
	"testing"

	"dsisim/internal/cache"
	"dsisim/internal/core"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/netsim"
)

func migCfg() Config {
	return Config{Consistency: SC, Policy: core.Policy{Migratory: true}}
}

// Write-after-write by different processors puts a block in migratory
// mode; the next read is granted exclusive, saving the upgrade.
func TestMigratoryDetectionAndGrant(t *testing.T) {
	r := newRig(t, rigOpts{cfg: migCfg()})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 0, a, 1)
	r.write(1000, 1, a, 2) // second writer: migratory
	res := r.read(2000, 2, a)
	wres := r.write(3000, 2, a, 3) // the anticipated write: must hit
	r.run()
	mustDone(t, "read", res)
	mustDone(t, "write", wres)
	if res.Value.Seq != 2 {
		t.Fatalf("read value = %v", res.Value)
	}
	f, ok := r.ccs[2].Cache().Peek(a)
	if !ok || f.State != cache.Exclusive {
		t.Fatalf("reader's copy = %+v (ok=%v), want Exclusive", f, ok)
	}
	if !wres.Hit {
		t.Fatal("anticipated write missed despite the exclusive grant")
	}
	if r.net.Counts().ByKind[netsim.Upgrade] != 0 {
		t.Fatal("an upgrade was still issued")
	}
	if r.home(a).Stats().MigratoryGrants != 1 {
		t.Fatalf("migratory grants = %d", r.home(a).Stats().MigratoryGrants)
	}
	// The previous owner was invalidated, not downgraded.
	if _, hit := r.ccs[1].Cache().Peek(a); hit {
		t.Fatal("previous owner kept a copy")
	}
}

// A reader that never writes demotes the block (misprediction check via
// the returned data's writer).
func TestMigratoryMisprediction(t *testing.T) {
	r := newRig(t, rigOpts{cfg: migCfg()})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 0, a, 1)
	r.write(1000, 1, a, 2)    // migratory
	r.read(2000, 2, a)        // exclusive grant; node 2 never writes
	res := r.read(4000, 0, a) // invalidates node 2; data writer is 1, not 2
	r.run()
	mustDone(t, "read", res)
	e, _ := r.home(a).Peek(a)
	if e.Migratory {
		t.Fatal("block still migratory after a non-writing owner")
	}
}

// Two readers between writes demote the block before it migrates.
func TestMigratoryDemotedByTwoReaders(t *testing.T) {
	r := newRig(t, rigOpts{cfg: migCfg()})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 0, a, 1)
	r.write(1000, 1, a, 2) // migratory
	r.read(2000, 2, a)     // exclusive grant (migratory mode)
	r.read(4000, 0, a)     // demotes (data writer 1 != owner 2)
	r.read(6000, 3, a)     // second reader: normal shared grant
	r.run()
	e, _ := r.home(a).Peek(a)
	if e.Migratory {
		t.Fatal("read-shared block classified migratory")
	}
	if !e.State.IsShared() || e.Sharers.Count() < 2 {
		t.Fatalf("entry = state=%v sharers=%v, want multiple readers", e.State, e.Sharers)
	}
}

// Migratory detection composes with DSI: the exclusive-granted read is
// marked for self-invalidation like any exclusive grant.
func TestMigratoryComposesWithDSI(t *testing.T) {
	cfg := Config{Consistency: SC, Policy: core.Policy{
		Migratory: true, Identifier: core.States, UpgradeExemption: true}}
	r := newRig(t, rigOpts{cfg: cfg})
	a := blockHomedAt(3, 4, 0)
	r.write(0, 0, a, 1)
	r.write(1000, 1, a, 2)
	res := r.read(2000, 2, a) // migratory grant from Exclusive: marked
	r.run()
	mustDone(t, "read", res)
	f, ok := r.ccs[2].Cache().Peek(a)
	if !ok || !f.SI {
		t.Fatalf("migratory grant unmarked: %+v", f)
	}
	e, _ := r.home(a).Peek(a)
	if e.State != directory.Exclusive || e.Owner != 2 {
		t.Fatalf("entry = %+v", e)
	}
}

// The migratory ring microbenchmark pattern end-to-end at rig level: each
// hand-off after detection costs one miss instead of read-miss + upgrade.
func TestMigratoryRingSavesUpgrades(t *testing.T) {
	base := newRig(t, rigOpts{cfg: scCfg()})
	mig := newRig(t, rigOpts{cfg: migCfg()})
	a := blockHomedAt(3, 4, 0)
	run := func(r *rig) {
		tm := event.Time(0)
		seq := uint64(1)
		for round := 0; round < 4; round++ {
			for n := 0; n < 4; n++ {
				r.read(tm, n, a)
				r.write(tm+1000, n, a, seq)
				seq++
				tm += 2000
			}
		}
		r.run()
	}
	run(base)
	run(mig)
	bu := base.net.Counts().ByKind[netsim.Upgrade]
	mu := mig.net.Counts().ByKind[netsim.Upgrade]
	if mu >= bu {
		t.Fatalf("migratory did not save upgrades: %d vs %d", mu, bu)
	}
}
