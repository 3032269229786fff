package core

import (
	"testing"
	"testing/quick"

	"dsisim/internal/cache"
	"dsisim/internal/directory"
	"dsisim/internal/mem"
)

func entry(st directory.State) *directory.Entry {
	return &directory.Entry{State: st, LastOwner: -1}
}

func req(node, home int) Request { return Request{Node: node, Home: home} }

// --- States scheme ---------------------------------------------------------

func TestStatesReadDecision(t *testing.T) {
	cases := []struct {
		st   directory.State
		want bool
	}{
		{directory.Idle, false},
		{directory.Shared, false},
		{directory.Exclusive, true},
		{directory.SharedSI, true},
		{directory.IdleX, true},
		{directory.IdleS, false},
		{directory.IdleSI, true},
	}
	for _, c := range cases {
		if got := States.Read(entry(c.st), req(1, 0)); got != c.want {
			t.Errorf("Read from %v = %v, want %v", c.st, got, c.want)
		}
	}
}

func TestStatesWriteDecision(t *testing.T) {
	cases := []struct {
		st   directory.State
		want bool
	}{
		{directory.Idle, false},
		{directory.Shared, true},
		{directory.SharedSI, true},
		{directory.Exclusive, true},
		{directory.IdleS, true},
		{directory.IdleSI, true},
	}
	for _, c := range cases {
		if got := States.Write(entry(c.st), req(1, 0)); got != c.want {
			t.Errorf("Write from %v = %v, want %v", c.st, got, c.want)
		}
	}
}

func TestStatesWriteIdleXDependsOnLastOwner(t *testing.T) {
	e := entry(directory.IdleX)
	e.LastOwner = 1
	if States.Write(e, req(1, 0)) {
		t.Error("IdleX write by same last owner marked")
	}
	if !States.Write(e, req(2, 0)) {
		t.Error("IdleX write by different node not marked")
	}
}

func TestStatesSetShared(t *testing.T) {
	e := entry(directory.Exclusive)
	States.SetShared(e, true)
	if e.State != directory.SharedSI {
		t.Fatalf("SI grant -> %v, want Shared_SI", e.State)
	}
	// Later reader joins Shared_SI: flavor sticks.
	States.SetShared(e, true)
	if e.State != directory.SharedSI {
		t.Fatalf("join kept %v", e.State)
	}
	e2 := entry(directory.Idle)
	States.SetShared(e2, false)
	if e2.State != directory.Shared {
		t.Fatalf("normal grant -> %v", e2.State)
	}
	// Plain Shared population keeps flavor even for a (hypothetical) si join.
	States.SetShared(e2, true)
	if e2.State != directory.Shared {
		t.Fatalf("Shared flavor changed to %v", e2.State)
	}
}

func TestStatesSetIdle(t *testing.T) {
	cases := []struct {
		cause IdleCause
		prev  directory.State
		wasSI bool
		want  directory.State
	}{
		{CauseSelfInv, directory.Exclusive, true, directory.IdleX},
		{CauseSelfInv, directory.Shared, true, directory.IdleS},
		{CauseSelfInv, directory.SharedSI, true, directory.IdleS},
		{CauseReplace, directory.Shared, true, directory.IdleSI},
		{CauseReplace, directory.Exclusive, true, directory.IdleSI},
		{CauseReplace, directory.Shared, false, directory.Idle},
		{CauseReplace, directory.Exclusive, false, directory.Idle},
	}
	for _, c := range cases {
		e := entry(c.prev)
		States.SetIdle(e, c.cause, c.prev, c.wasSI)
		if e.State != c.want {
			t.Errorf("SetIdle(%v, %v, si=%v) = %v, want %v", c.cause, c.prev, c.wasSI, e.State, c.want)
		}
	}
}

// --- Versions scheme -------------------------------------------------------

func TestVersionsReadMatchVsMismatch(t *testing.T) {
	e := entry(directory.Idle)
	e.Ver = 5
	if Versions.Read(e, Request{Node: 1, Ver: 5, HasVer: true}) {
		t.Error("matching version marked")
	}
	if !Versions.Read(e, Request{Node: 1, Ver: 4, HasVer: true}) {
		t.Error("mismatched version not marked")
	}
	if Versions.Read(e, Request{Node: 1}) {
		t.Error("no echoed version marked")
	}
}

func TestVersionsReadCountsGrants(t *testing.T) {
	e := entry(directory.Idle)
	Versions.Read(e, req(1, 0))
	Versions.Read(e, req(2, 0))
	if !e.ReadByTwo() {
		t.Fatal("two reads did not set the counter")
	}
}

func TestVersionsWrite(t *testing.T) {
	e := entry(directory.Idle)
	e.Ver = 7
	// No version echo, <2 readers: normal block; version bumps anyway.
	if Versions.Write(e, Request{Node: 1}) {
		t.Error("unmarked case marked")
	}
	if e.Ver != 8 {
		t.Errorf("version after write = %d, want 8", e.Ver)
	}
	// Mismatched echo: marked.
	if !Versions.Write(e, Request{Node: 1, Ver: 7, HasVer: true}) {
		t.Error("stale version write not marked")
	}
	// Matching echo but read by two processors this version: marked.
	e2 := entry(directory.Idle)
	Versions.Read(e2, req(1, 0))
	Versions.Read(e2, req(2, 0))
	if !Versions.Write(e2, Request{Node: 1, Ver: e2.Ver, HasVer: true}) {
		t.Error("read-by-two write not marked")
	}
	if e2.ReadCnt != 0 {
		t.Error("write did not clear read counter")
	}
}

func TestVersionsGrantVersion(t *testing.T) {
	e := entry(directory.Idle)
	e.Ver = 3
	if v, ok := Versions.GrantVersion(e); !ok || v != 3 {
		t.Fatalf("GrantVersion = %d,%v", v, ok)
	}
	if _, ok := States.GrantVersion(e); ok {
		t.Fatal("states scheme granted a version")
	}
	if _, ok := Never.GrantVersion(e); ok {
		t.Fatal("base scheme granted a version")
	}
}

// Version wrap-around is harmless: after 16 writes the version returns, and
// a requester echoing the pre-wrap version sees a match (a missed marking
// opportunity, never a correctness issue).
func TestVersionsWrapAround(t *testing.T) {
	e := entry(directory.Idle)
	start := e.Ver
	for i := 0; i < 16; i++ {
		Versions.Write(e, Request{Node: 1})
	}
	if e.Ver != start {
		t.Fatalf("after 16 writes ver = %d, want %d", e.Ver, start)
	}
	if Versions.Read(e, Request{Node: 2, Ver: start, HasVer: true}) {
		t.Fatal("wrapped version treated as mismatch")
	}
}

// --- Never / Always --------------------------------------------------------

func TestNeverAndAlways(t *testing.T) {
	e := entry(directory.Exclusive)
	if Never.Read(e, req(1, 0)) || Never.Write(e, req(1, 0)) {
		t.Error("Never marked something")
	}
	if !Always.Read(e, req(1, 0)) || !Always.Write(e, req(1, 0)) {
		t.Error("Always failed to mark")
	}
	Never.SetShared(e, true)
	if e.State != directory.Shared {
		t.Error("Never.SetShared flavor wrong")
	}
	Never.SetIdle(e, CauseSelfInv, directory.Exclusive, true)
	if e.State != directory.Idle {
		t.Error("Never.SetIdle flavor wrong")
	}
}

// --- Policy special cases --------------------------------------------------

func TestPolicyHomeNodeExemption(t *testing.T) {
	p := Policy{Identifier: States}
	e := entry(directory.Exclusive)
	if p.MarkRead(e, req(3, 3)) {
		t.Error("home-node read marked")
	}
	if !p.MarkRead(e, req(3, 0)) {
		t.Error("remote read not marked")
	}
	if p.MarkWrite(entry(directory.Shared), req(3, 3)) {
		t.Error("home-node write marked")
	}
}

func TestPolicyHomeReadStillCounts(t *testing.T) {
	p := Policy{Identifier: Versions}
	e := entry(directory.Idle)
	p.MarkRead(e, req(0, 0)) // home read
	p.MarkRead(e, req(1, 0))
	if !e.ReadByTwo() {
		t.Fatal("home read skipped shared-grant bookkeeping")
	}
}

func TestPolicyUpgradeExemption(t *testing.T) {
	p := Policy{Identifier: States, UpgradeExemption: true}
	e := entry(directory.Shared)
	r := Request{Node: 1, Home: 0, WasSharer: true, OtherSharers: false}
	if p.MarkWrite(e, r) {
		t.Error("lone upgrade marked despite exemption")
	}
	r.OtherSharers = true
	if !p.MarkWrite(entry(directory.Shared), r) {
		t.Error("upgrade with other sharers not marked")
	}
	// Without the exemption (weak consistency), lone upgrades are marked.
	p.UpgradeExemption = false
	r.OtherSharers = false
	if !p.MarkWrite(entry(directory.Shared), r) {
		t.Error("lone upgrade unmarked without exemption")
	}
}

func TestPolicyDisabled(t *testing.T) {
	var p Policy
	if p.Identifier != Never {
		t.Fatalf("zero policy identifies with %v", p.Identifier)
	}
	if p.MarkRead(entry(directory.Exclusive), req(1, 0)) {
		t.Fatal("disabled policy marked a read")
	}
	// Version bookkeeping stays out of the disabled path entirely.
	e := entry(directory.Shared)
	if p.MarkWrite(e, req(1, 0)) || e.Ver != 0 {
		t.Fatalf("disabled policy marked a write or bumped its version to %d", e.Ver)
	}
}

// --- Per-node state ----------------------------------------------------------

func newCache() *cache.Cache {
	return cache.New(cache.Config{SizeBytes: 64 * 32 * 4, Assoc: 4})
}

// selfInval returns a node's state reset for p.
func selfInval(p Policy) *SelfInval {
	s := new(SelfInval)
	s.Reset(p)
	return s
}

// Reset re-sizes the state in place for each run's policy: a FIFO after the
// list flush and back, with the arrays kept, so a warm reset allocates
// nothing.
func TestSelfInvalResetInPlace(t *testing.T) {
	c := newCache()
	s := selfInval(Policy{Identifier: Versions, FIFO: 1})
	for _, a := range []mem.Addr{32, 64} {
		c.Install(a, &cache.Fill{State: cache.Shared, SI: true})
		s.OnInstall(c, a)
	}
	if s.Displacements() != 1 {
		t.Fatalf("1-entry FIFO displaced %d, want 1", s.Displacements())
	}
	s.Reset(Policy{Identifier: Versions})
	if s.Displacements() != 0 {
		t.Fatal("reset kept the displacement count")
	}
	c.Install(96, &cache.Fill{State: cache.Shared, SI: true})
	if _, ok := s.OnInstall(c, 96); ok || s.n != 0 {
		t.Fatal("list flush queued or displaced on install")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		s.Reset(Policy{Identifier: Versions, FIFO: 64, History: 64})
		s.Reset(Policy{})
	}); allocs != 0 {
		t.Fatalf("warm reset allocates %v/op", allocs)
	}
}

func TestSyncFlushMechanism(t *testing.T) {
	c := newCache()
	s := selfInval(Policy{Identifier: Versions})
	c.Install(32, &cache.Fill{State: cache.Shared, SI: true})
	if _, ok := s.OnInstall(c, 32); ok {
		t.Fatal("sync-flush invalidated on install")
	}
	out := s.OnSync(c)
	if len(out) != 1 || out[0].Addr != 32 {
		t.Fatalf("OnSync = %+v", out)
	}
}

func TestFIFODisplacement(t *testing.T) {
	c := newCache()
	s := selfInval(Policy{Identifier: Versions, FIFO: 2})
	addrs := []mem.Addr{32, 64, 96}
	var displaced []cache.Evicted
	for _, a := range addrs {
		c.Install(a, &cache.Fill{State: cache.Shared, SI: true})
		if ev, ok := s.OnInstall(c, a); ok {
			displaced = append(displaced, ev)
		}
	}
	if len(displaced) != 1 || displaced[0].Addr != 32 {
		t.Fatalf("displaced = %+v, want block 32", displaced)
	}
	if _, hit := c.Peek(32); hit {
		t.Fatal("displaced block still cached")
	}
	if s.Displacements() != 1 {
		t.Fatalf("displacement count = %d", s.Displacements())
	}
	// Sync flushes the remaining two.
	out := s.OnSync(c)
	if len(out) != 2 || out[0].Addr != 64 || out[1].Addr != 96 {
		t.Fatalf("OnSync = %+v", out)
	}
	if s.n != 0 {
		t.Fatal("queue not drained")
	}
}

func TestFIFOSkipsAlreadyInvalidated(t *testing.T) {
	c := newCache()
	s := selfInval(Policy{Identifier: Versions, FIFO: 4})
	c.Install(32, &cache.Fill{State: cache.Shared, SI: true})
	s.OnInstall(c, 32)
	c.Invalidate(32) // directory got there first
	if out := s.OnSync(c); len(out) != 0 {
		t.Fatalf("flushed stale entry: %+v", out)
	}
}

func TestFIFONegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a FIFO of -1 entries did not panic")
		}
	}()
	selfInval(Policy{FIFO: -1})
}

// Property: the FIFO holds the most recent marked installs since the last
// sync, in arrival order and never more than its capacity, however the ring
// wraps; OnSync always empties it, and everything either self-invalidates
// via the FIFO or was gone already.
func TestFIFOCapacityProperty(t *testing.T) {
	f := func(ops []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := newCache()
		s := selfInval(Policy{Identifier: Versions, FIFO: capacity})
		var model []mem.Addr // the queue a slice-backed FIFO would hold
		for _, op := range ops {
			if op%8 == 0 {
				s.OnSync(c)
				model = model[:0]
				continue
			}
			a := mem.Addr(op%32+1) * mem.BlockSize
			c.Install(a, &cache.Fill{State: cache.Shared, SI: true})
			s.OnInstall(c, a)
			if model = append(model, a); len(model) > capacity {
				model = model[1:]
			}
			if s.n != len(model) {
				return false
			}
			for i, want := range model {
				if s.ring[(s.head+i)%capacity] != want {
					return false
				}
			}
		}
		s.OnSync(c)
		if s.n != 0 {
			return false
		}
		marked := false
		c.ForEachValid(func(fr cache.Frame) {
			if fr.SI {
				marked = true
			}
		})
		return !marked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for any request pattern, the version scheme never marks a read
// whose echoed version matches the entry, and always marks one that
// mismatches.
func TestVersionsReadDecisionProperty(t *testing.T) {
	f := func(echo uint8, bumps uint8) bool {
		e := entry(directory.Idle)
		for i := uint8(0); i < bumps%20; i++ {
			Versions.Write(e, Request{Node: 0})
		}
		v := echo & directory.VerMask
		got := Versions.Read(e, Request{Node: 1, Ver: v, HasVer: true})
		return got == (v != e.Ver)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
