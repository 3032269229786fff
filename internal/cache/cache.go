// Package cache implements the node's (second-level) cache as the paper's
// DSI hardware requires: a 4-way set-associative array of 32-byte blocks
// with, per frame,
//
//   - the usual tag/state/LRU metadata,
//   - the s bit marking a block for self-invalidation,
//   - the tear-off flag for untracked copies,
//   - a version-number field that survives invalidation, so a later miss to
//     the same tag can echo the version back to the directory, and
//   - membership in the hardware linked list of marked frames that the
//     flush-at-synchronization mechanism walks.
//
// Policy — when to mark, when to flush, FIFO vs list — lives in
// internal/core; this package is the mechanism.
package cache

import (
	"fmt"

	"dsisim/internal/mem"
)

// State is a cache-side block state. Exclusive is both readable and
// writable and implies the copy may be dirty (the protocol always writes
// back Exclusive copies on eviction or invalidation).
type State int

const (
	Invalid State = iota
	Shared
	Exclusive
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "Invalid"
	case Shared:
		return "Shared"
	case Exclusive:
		return "Exclusive"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Frame is one cache frame. Tag and Ver remain meaningful while
// State == Invalid so the version-number DSI scheme can echo the version of
// a previously-cached block.
type Frame struct {
	Tag     mem.Addr // block address
	State   State
	SI      bool // s bit: block is marked for self-invalidation
	TearOff bool // untracked copy; directory has no record of it
	Ver     uint8
	HasVer  bool
	Data    mem.Value

	lru    uint64
	inList bool // member of the marked-frame list
	// ep is the cache epoch the frame was last written in. A frame whose
	// epoch is behind the cache's is logically empty: Reset bumps the epoch
	// instead of clearing the array, and accessors lazily treat (or rewrite)
	// stale frames as zero. This keeps pooled-machine Reset O(marked) rather
	// than O(frames).
	ep uint32
}

// Valid reports whether the frame holds a usable copy.
func (f *Frame) Valid() bool { return f.State != Invalid }

// Evicted describes a block displaced by a fill or invalidated by a flush;
// the controller turns it into a writeback/notification message.
type Evicted struct {
	Addr    mem.Addr
	State   State
	Data    mem.Value
	SI      bool
	TearOff bool
}

// Config sets the cache geometry. Block size is fixed at mem.BlockSize.
type Config struct {
	SizeBytes int
	Assoc     int
}

// Validate reports whether the geometry holds a whole, positive number of
// sets of Assoc blocks each.
func (c Config) Validate() error {
	if c.Assoc <= 0 || c.SizeBytes < mem.BlockSize*c.Assoc || c.SizeBytes%(mem.BlockSize*c.Assoc) != 0 {
		return fmt.Errorf("cache: bad geometry %+v", c)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry, panicking on a
// geometry Validate rejects.
func (c Config) Sets() int {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	return c.SizeBytes / (mem.BlockSize * c.Assoc)
}

// Stats counts cache-array events. Controller-level timing is accounted in
// internal/machine; these are structural counts.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	SelfInvals int64 // frames invalidated by the self-invalidation machinery
}

// Cache is the cache array of one node.
type Cache struct {
	cfg    Config
	sets   [][]Frame
	clock  uint64
	epoch  uint32   // frames with ep != epoch are logically empty
	marked []*Frame // the hardware linked list of s-bit frames, arrival order
	stats  Stats

	// flushScratch backs MarkedFlush's result so the per-sync flush walk
	// allocates nothing in steady state. Valid until the next MarkedFlush.
	flushScratch []Evicted
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	n := cfg.Sets()
	sets := make([][]Frame, n)
	frames := make([]Frame, n*cfg.Assoc)
	for i := range sets {
		sets[i] = frames[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &Cache{cfg: cfg, sets: sets}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the structural counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset empties every frame and clears the marked-frame list, LRU clock, and
// counters, keeping the arrays so a reused machine starts from a cold cache
// without reallocating. Emptying is lazy: bumping the epoch invalidates
// every frame at once, and the array is only physically cleared on the
// (unreachable in practice) epoch wrap.
func (c *Cache) Reset() {
	c.epoch++
	if c.epoch == 0 {
		for _, set := range c.sets {
			for i := range set {
				set[i] = Frame{}
			}
		}
	}
	c.clock = 0
	clear(c.marked)
	c.marked = c.marked[:0]
	c.stats = Stats{}
}

func (c *Cache) set(a mem.Addr) []Frame {
	return c.sets[int(mem.BlockIndex(a))%len(c.sets)]
}

// Lookup returns the frame holding a valid copy of a's block, recording a
// hit or miss and updating LRU on hit.
func (c *Cache) Lookup(a mem.Addr) (*Frame, bool) {
	b := mem.BlockOf(a)
	for i := range c.set(a) {
		f := &c.set(a)[i]
		if f.ep == c.epoch && f.Valid() && f.Tag == b {
			c.clock++
			f.lru = c.clock
			c.stats.Hits++
			return f, true
		}
	}
	c.stats.Misses++
	return nil, false
}

// Peek is Lookup without touching LRU or counters, for checkers and tests.
func (c *Cache) Peek(a mem.Addr) (*Frame, bool) {
	b := mem.BlockOf(a)
	for i := range c.set(a) {
		f := &c.set(a)[i]
		if f.ep == c.epoch && f.Valid() && f.Tag == b {
			return f, true
		}
	}
	return nil, false
}

// EchoVersion returns the stored version for a's block if an invalid frame
// still carries its tag — the condition under which the version-number DSI
// scheme attaches a version to the outgoing miss request.
func (c *Cache) EchoVersion(a mem.Addr) (uint8, bool) {
	b := mem.BlockOf(a)
	for i := range c.set(a) {
		f := &c.set(a)[i]
		if f.ep == c.epoch && !f.Valid() && f.HasVer && f.Tag == b {
			return f.Ver, true
		}
	}
	return 0, false
}

// Fill installs a block. It returns the eviction record if a valid block had
// to be displaced. Fill never evicts a copy of the same block (re-filling an
// existing tag reuses its frame).
type Fill struct {
	State   State
	SI      bool
	TearOff bool
	Ver     uint8
	HasVer  bool
	Data    mem.Value
}

// Install places a's block per fill, returning a displaced valid block if
// any.
func (c *Cache) Install(a mem.Addr, fill Fill) (Evicted, bool) {
	if fill.State == Invalid {
		panic("cache: installing Invalid")
	}
	b := mem.BlockOf(a)
	set := c.set(a)
	victim := -1
	// Prefer: frame already holding this tag (valid or not), then any
	// invalid frame, then LRU.
	for i := range set {
		if set[i].ep == c.epoch && set[i].Tag == b && (set[i].Valid() || set[i].HasVer) {
			victim = i
			break
		}
	}
	if victim < 0 {
		for i := range set {
			if set[i].ep != c.epoch || !set[i].Valid() {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
	}
	f := &set[victim]
	if f.ep != c.epoch {
		*f = Frame{ep: c.epoch}
	}
	var ev Evicted
	evicted := false
	if f.Valid() && f.Tag != b {
		ev = Evicted{Addr: f.Tag, State: f.State, Data: f.Data, SI: f.SI, TearOff: f.TearOff}
		evicted = true
		c.stats.Evictions++
	}
	c.clock++
	f.Tag = b
	f.State = fill.State
	f.SI = fill.SI
	f.TearOff = fill.TearOff
	f.Ver = fill.Ver
	f.HasVer = fill.HasVer
	f.Data = fill.Data
	f.lru = c.clock
	if fill.SI && !f.inList {
		f.inList = true
		c.marked = append(c.marked, f)
	}
	return ev, evicted
}

// Invalidate drops the copy of a's block if present, retaining the tag and
// version so a later miss can echo it. It returns the dropped copy.
func (c *Cache) Invalidate(a mem.Addr) (Evicted, bool) {
	f, ok := c.Peek(a)
	if !ok {
		return Evicted{}, false
	}
	ev := Evicted{Addr: f.Tag, State: f.State, Data: f.Data, SI: f.SI, TearOff: f.TearOff}
	f.State = Invalid
	f.SI = false
	f.TearOff = false
	return ev, true
}

// Downgrade moves a's block from Exclusive to Shared, returning its data for
// the recall response.
func (c *Cache) Downgrade(a mem.Addr) (mem.Value, bool) {
	f, ok := c.Peek(a)
	if !ok || f.State != Exclusive {
		return mem.Value{}, false
	}
	f.State = Shared
	return f.Data, true
}

// SetVersion records the version delivered with a fill or reply for a's
// block, if present.
func (c *Cache) SetVersion(a mem.Addr, ver uint8) {
	if f, ok := c.Peek(a); ok {
		f.Ver = ver
		f.HasVer = true
	}
}

// Mark sets the s bit on a's valid frame (cache-side identification) and
// enters it into the marked list. It reports whether a valid frame was
// marked (false if absent or already marked).
func (c *Cache) Mark(a mem.Addr) bool {
	f, ok := c.Peek(a)
	if !ok || f.SI {
		return false
	}
	f.SI = true
	if !f.inList {
		f.inList = true
		c.marked = append(c.marked, f)
	}
	return true
}

// MarkedFlush walks the hardware list of s-bit frames, invalidates every one
// that still holds a marked valid copy, and returns them in list (arrival)
// order. Tear-off frames are included; callers distinguish them via the
// Evicted record. The list is emptied. The returned slice is scratch state
// reused by the next MarkedFlush call: consume it before flushing again.
func (c *Cache) MarkedFlush() []Evicted {
	out := c.flushScratch[:0]
	for _, f := range c.marked {
		f.inList = false
		if f.Valid() && f.SI {
			out = append(out, Evicted{Addr: f.Tag, State: f.State, Data: f.Data, SI: true, TearOff: f.TearOff})
			f.State = Invalid
			f.SI = false
			f.TearOff = false
			c.stats.SelfInvals++
		}
	}
	c.marked = c.marked[:0]
	c.flushScratch = out
	return out
}

// MarkedLen returns the current length of the marked list (including frames
// whose copies were since displaced), for occupancy reporting.
func (c *Cache) MarkedLen() int { return len(c.marked) }

// SelfInvalidate invalidates a's block if it is still present and marked,
// counting it as a self-invalidation. Used by the FIFO mechanism when an
// entry falls out of the buffer.
func (c *Cache) SelfInvalidate(a mem.Addr) (Evicted, bool) {
	f, ok := c.Peek(a)
	if !ok || !f.SI {
		return Evicted{}, false
	}
	ev := Evicted{Addr: f.Tag, State: f.State, Data: f.Data, SI: true, TearOff: f.TearOff}
	f.State = Invalid
	f.SI = false
	f.TearOff = false
	c.stats.SelfInvals++
	return ev, true
}

// ForEachValid calls fn for every valid frame, for checkers and audits.
func (c *Cache) ForEachValid(fn func(*Frame)) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].ep == c.epoch && set[i].Valid() {
				fn(&set[i])
			}
		}
	}
}

// CountValid returns the number of valid frames.
func (c *Cache) CountValid() int {
	n := 0
	c.ForEachValid(func(*Frame) { n++ })
	return n
}
