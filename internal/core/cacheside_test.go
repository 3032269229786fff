package core

import (
	"testing"
	"testing/quick"

	"dsisim/internal/cache"
	"dsisim/internal/mem"
)

func TestInvalHistoryThreshold(t *testing.T) {
	h := NewInvalHistory(16, 2)
	b := mem.Addr(3 * mem.BlockSize)
	if h.ShouldMark(b) {
		t.Fatal("fresh table marked")
	}
	h.OnInvalidate(b)
	if h.ShouldMark(b) {
		t.Fatal("one invalidation reached threshold 2")
	}
	h.OnInvalidate(b + 5) // same block, sub-block address
	if !h.ShouldMark(b) {
		t.Fatal("two invalidations did not reach threshold")
	}
	if h.Count(b) != 2 {
		t.Fatalf("count = %d", h.Count(b))
	}
}

func TestInvalHistoryConflictEviction(t *testing.T) {
	h := NewInvalHistory(4, 2)
	a := mem.Addr(1 * mem.BlockSize)
	b := a + mem.Addr(4*mem.BlockSize) // same slot (4-entry table)
	h.OnInvalidate(a)
	h.OnInvalidate(a)
	h.OnInvalidate(b) // steals the slot
	if h.ShouldMark(a) {
		t.Fatal("evicted entry still marks")
	}
	if h.Count(b) != 1 {
		t.Fatalf("stealer count = %d", h.Count(b))
	}
}

func TestInvalHistorySaturates(t *testing.T) {
	h := NewInvalHistory(4, 1)
	a := mem.Addr(mem.BlockSize)
	for i := 0; i < 300; i++ {
		h.OnInvalidate(a)
	}
	if h.Count(a) != 0xff {
		t.Fatalf("count = %d, want saturated 255", h.Count(a))
	}
}

func TestInvalHistoryBadConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewInvalHistory(0, 1) },
		func() { NewInvalHistory(3, 1) }, // not a power of two
		func() { NewInvalHistory(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMarkLocal(t *testing.T) {
	h := NewInvalHistory(16, 1)
	c := cache.New(cache.Config{SizeBytes: 16 * mem.BlockSize, Assoc: 4})
	a := mem.Addr(2 * mem.BlockSize)
	c.Install(a, &cache.Fill{State: cache.Shared})
	if h.MarkLocal(c, a) {
		t.Fatal("marked without history")
	}
	h.OnInvalidate(a)
	if !h.MarkLocal(c, a) {
		t.Fatal("did not mark with history")
	}
	f, _ := c.Peek(a)
	if !f.SI {
		t.Fatal("frame s bit not set")
	}
	// Marked frames are flushable through the normal machinery.
	if out := (SyncFlush{}).OnSync(c); len(out) != 1 || out[0].Addr != a {
		t.Fatalf("flush = %+v", out)
	}
	if h.Marked != 1 {
		t.Fatalf("marked counter = %d", h.Marked)
	}
}

func TestNaiveFlushScanLatency(t *testing.T) {
	c := cache.New(cache.Config{SizeBytes: 64 * mem.BlockSize, Assoc: 4})
	if got := (NaiveFlush{}).ScanLatency(c, 0); got != 64 {
		t.Fatalf("naive scan = %d, want 64 (one per frame)", got)
	}
	if got := (SyncFlush{}).ScanLatency(c, 10); got != 0 {
		t.Fatalf("list scan = %d, want 0", got)
	}
	if got := NewFIFO(8).ScanLatency(c, 10); got != 0 {
		t.Fatalf("fifo scan = %d, want 0", got)
	}
}

// Property: ShouldMark is exactly "same block still resident and count >=
// threshold", for any invalidation sequence.
func TestInvalHistoryProperty(t *testing.T) {
	f := func(blocks []uint8, probe uint8) bool {
		h := NewInvalHistory(8, 3)
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
		want := resident[slot] == p && counts[p] >= 3
		return h.ShouldMark(p) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
