package core

import (
	"dsisim/internal/cache"
	"dsisim/internal/mem"
)

// This file implements the cache-controller-side identification scheme the
// paper sketches in §3.1: "a cache controller can identify blocks for
// self-invalidation by maintaining information for recently invalidated
// blocks (e.g., the number of times a block is invalidated)". It needs no
// directory support at all — the cache marks its own fills, and the
// existing self-invalidation notifications keep the directory consistent.
//
// The table is a SelfInval's history half: a small direct-mapped table of
// recently invalidated blocks with a saturating per-block invalidation
// counter, sized by Policy.History (the paper's analogy is a
// victim-cache-sized structure). When a block whose count has reached
// historyThreshold is re-fetched, the cache marks the new copy for
// self-invalidation locally.

// historyThreshold is how many observed invalidations qualify a block: one
// invalidation may be incidental, two are a pattern.
const historyThreshold = 2

// resetHistory empties the table and sizes it to n entries, keeping its
// arrays; n = 0 keeps no table.
func (s *SelfInval) resetHistory(n int) {
	if n < 0 || n&(n-1) != 0 {
		panic("core: history entries must be a power of two (or 0 for none)")
	}
	s.tags = resize(s.tags, n)
	s.counts = resize(s.counts, n)
	clear(s.tags)
	clear(s.counts)
}

func (s *SelfInval) slot(b mem.Addr) int {
	return int(mem.BlockIndex(b)) & (len(s.tags) - 1)
}

// OnInvalidate records an explicit invalidation of block b (the conflict
// signal the predictor learns from); without a table it does nothing.
// Direct-mapped: a conflicting block steals the entry and restarts its
// count.
func (s *SelfInval) OnInvalidate(b mem.Addr) {
	if len(s.tags) == 0 {
		return
	}
	b = mem.BlockOf(b)
	i := s.slot(b)
	if s.tags[i] != b {
		s.tags[i] = b
		s.counts[i] = 1
		return
	}
	if s.counts[i] < 0xff {
		s.counts[i]++
	}
}

// shouldMark reports whether a fill of block b should be marked for
// self-invalidation based on its invalidation history.
func (s *SelfInval) shouldMark(b mem.Addr) bool {
	return s.count(b) >= historyThreshold
}

// count returns the current counter for b: 0 when the table holds another
// block in b's entry, or keeps no table.
func (s *SelfInval) count(b mem.Addr) uint8 {
	if len(s.tags) == 0 {
		return 0
	}
	b = mem.BlockOf(b)
	i := s.slot(b)
	if s.tags[i] != b {
		return 0
	}
	return s.counts[i]
}

// MarkLocal applies the history decision to a freshly installed frame,
// wiring it into the cache's marked list so the node's mechanism will
// self-invalidate it. Returns whether the frame was marked.
func (s *SelfInval) MarkLocal(c *cache.Cache, b mem.Addr) bool {
	return s.shouldMark(b) && c.Mark(b)
}
