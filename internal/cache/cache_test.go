package cache

import (
	"testing"
	"testing/quick"

	"dsisim/internal/mem"
)

func small() *Cache { return New(Config{SizeBytes: 4 * 32 * 2, Assoc: 2}) } // 4 sets, 2-way

func addrForSet(set, n int, numSets int) mem.Addr {
	return mem.Addr((set + n*numSets) * mem.BlockSize)
}

func TestConfigSets(t *testing.T) {
	if s := (Config{SizeBytes: 256 * 1024, Assoc: 4}).Sets(); s != 2048 {
		t.Fatalf("sets = %d, want 2048", s)
	}
}

// The set index is a field of the block address, so Validate takes only
// power-of-two set counts.
func TestValidateSetCounts(t *testing.T) {
	for _, c := range []struct {
		sets int
		ok   bool
	}{{1, true}, {3, false}, {768, false}, {4096, true}} {
		cfg := Config{SizeBytes: c.sets * 4 * mem.BlockSize, Assoc: 4}
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%d sets: Validate() = %v, want ok=%v", c.sets, err, c.ok)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry did not panic")
		}
	}()
	_ = Config{SizeBytes: 100, Assoc: 3}.Sets()
}

func TestInstallLookup(t *testing.T) {
	c := small()
	a := mem.Addr(64)
	if _, hit := c.Lookup(a); hit {
		t.Fatal("hit in empty cache")
	}
	c.Install(a, &Fill{State: Shared, Data: mem.Value{Writer: 1, Seq: 1}})
	f, hit := c.Lookup(a + 5) // same block
	if !hit || f.State != Shared || f.Data.Seq != 1 {
		t.Fatalf("lookup after install: hit=%v f=%+v", hit, f)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2-way
	a0 := addrForSet(1, 0, 4)
	a1 := addrForSet(1, 1, 4)
	a2 := addrForSet(1, 2, 4)
	c.Install(a0, &Fill{State: Shared})
	c.Install(a1, &Fill{State: Shared})
	c.Lookup(a0) // a0 recently used; a1 is LRU
	ev, evicted := c.Install(a2, &Fill{State: Shared})
	if !evicted || ev.Addr != a1 {
		t.Fatalf("evicted %+v (%v), want block %#x", ev, evicted, uint64(a1))
	}
	if _, hit := c.Peek(a0); !hit {
		t.Fatal("MRU block was evicted")
	}
}

func TestInstallPrefersInvalidFrame(t *testing.T) {
	c := small()
	a0 := addrForSet(2, 0, 4)
	a1 := addrForSet(2, 1, 4)
	a2 := addrForSet(2, 2, 4)
	c.Install(a0, &Fill{State: Shared})
	c.Install(a1, &Fill{State: Exclusive})
	c.Invalidate(a0)
	if _, evicted := c.Install(a2, &Fill{State: Shared}); evicted {
		t.Fatal("install evicted a valid block while an invalid frame existed")
	}
	if _, hit := c.Peek(a1); !hit {
		t.Fatal("valid block lost")
	}
}

func TestReinstallSameTagNoEviction(t *testing.T) {
	c := small()
	a := mem.Addr(96)
	c.Install(a, &Fill{State: Shared})
	if _, evicted := c.Install(a, &Fill{State: Exclusive}); evicted {
		t.Fatal("refill of same tag reported eviction")
	}
	f, _ := c.Peek(a)
	if f.State != Exclusive {
		t.Fatalf("state = %v after upgrade refill", f.State)
	}
}

func TestInvalidateRetainsVersion(t *testing.T) {
	c := small()
	a := mem.Addr(128)
	c.Install(a, &Fill{State: Shared, Ver: 9, HasVer: true})
	ev, ok := c.Invalidate(a)
	if !ok || ev.State != Shared {
		t.Fatalf("invalidate = %+v %v", ev, ok)
	}
	if v, ok := c.EchoVersion(a); !ok || v != 9 {
		t.Fatalf("EchoVersion = %d,%v; want 9,true", v, ok)
	}
	// Valid copies never echo.
	c.Install(a, &Fill{State: Shared, Ver: 10, HasVer: true})
	if _, ok := c.EchoVersion(a); ok {
		t.Fatal("EchoVersion returned for a valid copy")
	}
}

func TestEchoVersionLostOnFrameReuse(t *testing.T) {
	c := small() // 2-way
	a0 := addrForSet(3, 0, 4)
	a1 := addrForSet(3, 1, 4)
	a2 := addrForSet(3, 2, 4)
	c.Install(a0, &Fill{State: Shared, Ver: 4, HasVer: true})
	c.Invalidate(a0)
	// Two new blocks displace both frames of the set.
	c.Install(a1, &Fill{State: Shared})
	c.Install(a2, &Fill{State: Shared})
	if _, ok := c.EchoVersion(a0); ok {
		t.Fatal("version survived frame reuse")
	}
}

func TestDowngrade(t *testing.T) {
	c := small()
	a := mem.Addr(160)
	c.Install(a, &Fill{State: Exclusive, Data: mem.Value{Writer: 2, Seq: 5}})
	v, ok := c.Downgrade(a)
	if !ok || v.Seq != 5 {
		t.Fatalf("downgrade = %v,%v", v, ok)
	}
	f, _ := c.Peek(a)
	if f.State != Shared {
		t.Fatalf("state after downgrade = %v", f.State)
	}
	if _, ok := c.Downgrade(a); ok {
		t.Fatal("downgrade of Shared succeeded")
	}
}

func TestMarkedFlushOrderAndClearing(t *testing.T) {
	c := New(Config{SizeBytes: 16 * 32 * 4, Assoc: 4})
	addrs := []mem.Addr{32, 64, 96}
	for _, a := range addrs {
		c.Install(a, &Fill{State: Shared, SI: true})
	}
	c.Install(128, &Fill{State: Shared}) // unmarked
	out := c.MarkedFlush()
	if len(out) != 3 {
		t.Fatalf("flushed %d, want 3", len(out))
	}
	for i, ev := range out {
		if ev.Addr != addrs[i] {
			t.Fatalf("flush order: got %#x at %d, want %#x", uint64(ev.Addr), i, uint64(addrs[i]))
		}
	}
	for _, a := range addrs {
		if _, hit := c.Peek(a); hit {
			t.Fatalf("block %#x survived flush", uint64(a))
		}
	}
	if _, hit := c.Peek(128); !hit {
		t.Fatal("unmarked block flushed")
	}
	if len(c.MarkedFlush()) != 0 {
		t.Fatal("second flush not empty")
	}
	if c.Stats().SelfInvals != 3 {
		t.Fatalf("self-inval count = %d", c.Stats().SelfInvals)
	}
}

func TestMarkedFlushSkipsDisplacedAndInvalidated(t *testing.T) {
	c := New(Config{SizeBytes: 16 * 32 * 4, Assoc: 4})
	c.Install(32, &Fill{State: Shared, SI: true})
	c.Install(64, &Fill{State: Shared, SI: true})
	c.Invalidate(32) // explicitly invalidated before the sync point
	out := c.MarkedFlush()
	if len(out) != 1 || out[0].Addr != 64 {
		t.Fatalf("flush = %+v, want only block 64", out)
	}
}

func TestMarkedListNoDuplicates(t *testing.T) {
	c := New(Config{SizeBytes: 16 * 32 * 4, Assoc: 4})
	c.Install(32, &Fill{State: Shared, SI: true})
	c.Invalidate(32)
	c.Install(32, &Fill{State: Exclusive, SI: true}) // same frame re-marked before any flush
	if c.MarkedLen() != 1 {
		t.Fatalf("marked list len = %d, want 1 (no duplicate entries)", c.MarkedLen())
	}
	out := c.MarkedFlush()
	if len(out) != 1 || out[0].State != Exclusive {
		t.Fatalf("flush = %+v", out)
	}
}

func TestSelfInvalidateOnlyMarked(t *testing.T) {
	c := small()
	c.Install(32, &Fill{State: Shared})
	if _, ok := c.SelfInvalidate(32); ok {
		t.Fatal("self-invalidated an unmarked block")
	}
	c.Install(64, &Fill{State: Exclusive, SI: true, Data: mem.Value{Writer: 1, Seq: 2}})
	ev, ok := c.SelfInvalidate(64)
	if !ok || ev.State != Exclusive || ev.Data.Seq != 2 {
		t.Fatalf("self-invalidate = %+v,%v", ev, ok)
	}
	if _, hit := c.Peek(64); hit {
		t.Fatal("block survived self-invalidation")
	}
}

func TestTearOffFlagRoundTrip(t *testing.T) {
	c := small()
	c.Install(32, &Fill{State: Shared, SI: true, TearOff: true})
	f, _ := c.Peek(32)
	if !f.TearOff || !f.SI {
		t.Fatalf("frame = %+v", f)
	}
	out := c.MarkedFlush()
	if len(out) != 1 || !out[0].TearOff {
		t.Fatalf("flush lost tear-off flag: %+v", out)
	}
}

// Property: the number of valid frames never exceeds capacity, and a block
// just installed is always present.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{SizeBytes: 8 * 32 * 2, Assoc: 2})
		capacity := 16
		for _, op := range ops {
			a := mem.Addr(op%64) * mem.BlockSize
			switch op % 3 {
			case 0:
				c.Install(a, &Fill{State: Shared})
				if _, hit := c.Peek(a); !hit {
					return false
				}
			case 1:
				c.Install(a, &Fill{State: Exclusive, SI: op%5 == 0})
			case 2:
				c.Invalidate(a)
				if _, hit := c.Peek(a); hit {
					return false
				}
			}
			if c.CountValid() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after any op sequence, every marked-list flush returns only
// blocks that were valid and marked, and afterwards no valid frame has the
// s bit set.
func TestFlushClearsAllMarksProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{SizeBytes: 8 * 32 * 2, Assoc: 2})
		for _, op := range ops {
			a := mem.Addr(op%32) * mem.BlockSize
			c.Install(a, &Fill{State: Shared, SI: op%2 == 0})
		}
		for _, ev := range c.MarkedFlush() {
			if !ev.SI {
				return false
			}
		}
		ok := true
		c.ForEachValid(func(f Frame) {
			if f.SI {
				ok = false
			}
		})
		return ok && c.MarkedLen() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
