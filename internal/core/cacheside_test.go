package core

import (
	"testing"
	"testing/quick"

	"dsisim/internal/cache"
	"dsisim/internal/mem"
)

func TestInvalHistoryThreshold(t *testing.T) {
	h := selfInval(Policy{History: 16})
	b := mem.Addr(3 * mem.BlockSize)
	if h.shouldMark(b) {
		t.Fatal("fresh table marked")
	}
	h.OnInvalidate(b)
	if h.shouldMark(b) {
		t.Fatal("one invalidation reached threshold 2")
	}
	h.OnInvalidate(b + 5) // same block, sub-block address
	if !h.shouldMark(b) {
		t.Fatal("two invalidations did not reach threshold")
	}
	if h.count(b) != 2 {
		t.Fatalf("count = %d", h.count(b))
	}
}

func TestInvalHistoryConflictEviction(t *testing.T) {
	h := selfInval(Policy{History: 4})
	a := mem.Addr(1 * mem.BlockSize)
	b := a + mem.Addr(4*mem.BlockSize) // same slot (4-entry table)
	h.OnInvalidate(a)
	h.OnInvalidate(a)
	h.OnInvalidate(b) // steals the slot
	if h.shouldMark(a) {
		t.Fatal("evicted entry still marks")
	}
	if h.count(b) != 1 {
		t.Fatalf("stealer count = %d", h.count(b))
	}
}

func TestInvalHistorySaturates(t *testing.T) {
	h := selfInval(Policy{History: 4})
	a := mem.Addr(mem.BlockSize)
	for i := 0; i < 300; i++ {
		h.OnInvalidate(a)
	}
	if h.count(a) != 0xff {
		t.Fatalf("count = %d, want saturated 255", h.count(a))
	}
}

func TestInvalHistoryBadConfigPanics(t *testing.T) {
	for _, n := range []int{3, -4} { // not a power of two; negative
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("history of %d entries did not panic", n)
				}
			}()
			selfInval(Policy{History: n})
		}()
	}
}

func TestMarkLocal(t *testing.T) {
	h := selfInval(Policy{History: 16})
	c := cache.New(cache.Config{SizeBytes: 16 * mem.BlockSize, Assoc: 4})
	a := mem.Addr(2 * mem.BlockSize)
	c.Install(a, &cache.Fill{State: cache.Shared})
	if h.MarkLocal(c, a) {
		t.Fatal("marked without history")
	}
	h.OnInvalidate(a)
	h.OnInvalidate(a)
	if !h.MarkLocal(c, a) {
		t.Fatal("did not mark with history")
	}
	f, _ := c.Peek(a)
	if !f.SI {
		t.Fatal("frame s bit not set")
	}
	// Marked frames are flushable through the normal machinery.
	if out := h.OnSync(c); len(out) != 1 || out[0].Addr != a {
		t.Fatalf("flush = %+v", out)
	}
	// Without a table nothing is recorded or marked.
	none := selfInval(Policy{})
	c.Install(a, &cache.Fill{State: cache.Shared})
	none.OnInvalidate(a)
	none.OnInvalidate(a)
	if none.count(a) != 0 || none.MarkLocal(c, a) {
		t.Fatal("a policy without a history table marked")
	}
}

func TestNaiveFlushScanLatency(t *testing.T) {
	c := cache.New(cache.Config{SizeBytes: 64 * mem.BlockSize, Assoc: 4})
	if got := selfInval(Policy{Identifier: Versions, NaiveScan: true}).ScanLatency(c); got != 64 {
		t.Fatalf("naive scan = %d, want 64 (one per frame)", got)
	}
	if got := selfInval(Policy{Identifier: Versions}).ScanLatency(c); got != 0 {
		t.Fatalf("list scan = %d, want 0", got)
	}
	if got := selfInval(Policy{Identifier: Versions, FIFO: 8}).ScanLatency(c); got != 0 {
		t.Fatalf("fifo scan = %d, want 0", got)
	}
}

// Property: shouldMark is exactly "same block still resident and count >=
// threshold", for any invalidation sequence.
func TestInvalHistoryProperty(t *testing.T) {
	f := func(blocks []uint8, probe uint8) bool {
		h := selfInval(Policy{History: 8})
		counts := map[mem.Addr]uint8{}
		resident := map[int]mem.Addr{}
		for _, raw := range blocks {
			b := mem.Addr(raw%32) * mem.BlockSize
			slot := int(mem.BlockIndex(b)) & 7
			if resident[slot] != b {
				resident[slot] = b
				counts[b] = 0
			}
			counts[b]++
			h.OnInvalidate(b)
		}
		p := mem.Addr(probe%32) * mem.BlockSize
		slot := int(mem.BlockIndex(p)) & 7
		want := resident[slot] == p && counts[p] >= historyThreshold
		return h.shouldMark(p) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
