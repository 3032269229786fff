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
// As in hardware, tags, states and LRU ranks sit in a tag array apart from
// the data and DSI bits, and a block's set is given by the low bits of its
// block number, so the set count is a power of two.
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
type State uint8

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

// way is one way's entry in the tag array: the block tag, the epoch the way
// was last written in, the coherence state, and the way's LRU rank in its
// set. At 16 bytes, the four ways of a set fill one 64-byte host cache line,
// so a hit's probe and its LRU update touch one line. A way whose epoch is
// behind the cache's is logically empty: Reset bumps the epoch instead of
// clearing the arrays, and stale ways are treated as (and rewritten to)
// empty when next used. This keeps pooled-machine Reset O(marked) rather
// than O(ways).
//
// The ranks of a set's ways are a permutation of 0..assoc-1, assoc-1 the
// most recently used. Way i stores its rank minus i (mod 256), so an
// all-zero tag array, fresh or cleared, ranks its ways in way order, and
// neither New nor a clear needs a pass over the ways. Only a set whose ways
// are all valid in the current epoch picks its victim by rank, and each of
// those ways was installed, and ranked, in this epoch, so the ranks a Reset
// leaves behind never decide a victim.
type way struct {
	tag   mem.Addr
	ep    uint32
	state State
	rank  uint8 // LRU rank minus the way's index in its set, mod 256
}

// line is one way's entry in the data array: the block contents and the DSI
// bits kept beside them. Ver and HasVer stay meaningful while the way is
// Invalid, so the version-number DSI scheme can echo the version of a
// previously-cached block. The padding keeps each line within one 64-byte
// host cache line.
type line struct {
	Data    mem.Value
	SI      bool // s bit: block is marked for self-invalidation
	TearOff bool // untracked copy; directory has no record of it
	Ver     uint8
	HasVer  bool
	inList  bool // member of the marked-frame list
	_       [11]byte
}

// Frame is a view of one valid way, as Lookup, Peek, and ForEachValid return
// it: the way's tag and its state when the view was taken, plus the way's
// data line, whose fields (Data, SI, TearOff, Ver, HasVer) it promotes and
// through which they may be changed in place. The cache's own methods change
// the state; a view never does, so take a fresh one after calling them.
type Frame struct {
	Tag   mem.Addr // block address
	State State
	*line
}

// Evicted describes a block displaced by a fill or invalidated by a flush;
// the controller turns it into a writeback/notification message. At 64
// bytes it copies inline.
type Evicted struct {
	Addr    mem.Addr
	Data    mem.Value
	State   State
	SI      bool
	TearOff bool
}

// Config sets the cache geometry. Block size is fixed at mem.BlockSize.
type Config struct {
	SizeBytes int
	Assoc     int
}

// MaxAssoc is the largest associativity a cache takes: a way's LRU rank is
// one byte.
const MaxAssoc = 256

// Validate reports whether the geometry holds a whole, positive,
// power-of-two number of sets of at most MaxAssoc blocks each. The set count
// must be a power of two because, as in the paper's hardware, the set index
// is a field of the block address: the low bits of the block number.
func (c Config) Validate() error {
	if c.Assoc <= 0 || c.Assoc > MaxAssoc {
		return fmt.Errorf("cache: bad geometry %+v: associativity must be 1 to %d", c, MaxAssoc)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%mem.BlockSize != 0 || (c.SizeBytes/mem.BlockSize)%c.Assoc != 0 {
		return fmt.Errorf("cache: bad geometry %+v: want a positive multiple of %d bytes (%d ways of %d-byte blocks)",
			c, c.Assoc*mem.BlockSize, c.Assoc, mem.BlockSize)
	}
	if sets := c.SizeBytes / mem.BlockSize / c.Assoc; sets&(sets-1) != 0 {
		return fmt.Errorf("cache: bad geometry %+v: %d sets, want a power of two", c, sets)
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

// Cache is the cache array of one node: a flat tag array and a parallel
// flat data array, set-major, so set s holds ways [s*assoc, (s+1)*assoc) of
// both. The set of block b is BlockIndex(b) & setMask.
type Cache struct {
	cfg     Config
	assoc   int
	setMask uint64
	tags    []way
	lines   []line
	epoch   uint32  // ways with ep != epoch are logically empty
	marked  []int32 // the hardware linked list of s-bit ways, arrival order
	stats   Stats

	// flushScratch backs MarkedFlush's result so the per-sync flush walk
	// allocates nothing in steady state. Valid until the next MarkedFlush.
	flushScratch []Evicted
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	n := cfg.Sets()
	return &Cache{
		cfg:     cfg,
		assoc:   cfg.Assoc,
		setMask: uint64(n - 1),
		tags:    make([]way, n*cfg.Assoc),
		lines:   make([]line, n*cfg.Assoc),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the structural counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset empties every frame and clears the marked-frame list and counters,
// keeping the arrays so a reused machine starts from a cold cache without
// reallocating. Emptying is lazy: bumping the epoch invalidates every way
// at once, and the arrays are only physically cleared on the (unreachable
// in practice) epoch wrap.
func (c *Cache) Reset() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.tags)
		clear(c.lines)
	}
	c.marked = c.marked[:0]
	c.stats = Stats{}
}

// set returns the index of the first way of a's set.
//
//dsi:hotpath
func (c *Cache) set(a mem.Addr) int {
	return int(mem.BlockIndex(a)&c.setMask) * c.assoc
}

// find returns the index of the way holding a valid copy of block b, or -1.
//
//dsi:hotpath
func (c *Cache) find(b mem.Addr) int {
	base := c.set(b)
	ways := c.tags[base : base+c.assoc]
	for i := range ways {
		if w := &ways[i]; w.tag == b && w.ep == c.epoch && w.state != Invalid {
			return base + i
		}
	}
	return -1
}

// frame returns the view of way i.
//
//dsi:hotpath
func (c *Cache) frame(i int) Frame {
	w := &c.tags[i]
	return Frame{Tag: w.tag, State: w.state, line: &c.lines[i]}
}

// promote makes way i of the set starting at way base the most recently
// used of its set: the ways ranked above it move down one.
//
//dsi:hotpath
func (c *Cache) promote(base, i int) {
	ways := c.tags[base : base+c.assoc]
	top := uint8(c.assoc - 1)
	me := i - base
	old := ways[me].rank + uint8(me)
	if old == top {
		return
	}
	for j := range ways {
		if ways[j].rank+uint8(j) > old {
			ways[j].rank--
		}
	}
	ways[me].rank = top - uint8(me)
}

// Lookup returns the frame holding a valid copy of a's block, recording a
// hit or miss and updating LRU on hit.
//
//dsi:hotpath
func (c *Cache) Lookup(a mem.Addr) (Frame, bool) {
	b := mem.BlockOf(a)
	i := c.find(b)
	if i < 0 {
		c.stats.Misses++
		return Frame{}, false
	}
	c.promote(c.set(b), i)
	c.stats.Hits++
	return c.frame(i), true
}

// Touch is Lookup for a load whose value is discarded: on a hit it records
// the hit and updates LRU, reads nothing from the data array, and returns
// true. A miss is left to the Lookup that serves it, which counts it.
//
//dsi:hotpath
func (c *Cache) Touch(a mem.Addr) bool {
	b := mem.BlockOf(a)
	i := c.find(b)
	if i < 0 {
		return false
	}
	c.promote(c.set(b), i)
	c.stats.Hits++
	return true
}

// Peek is Lookup without touching LRU or counters, for checkers and tests.
//
//dsi:hotpath
func (c *Cache) Peek(a mem.Addr) (Frame, bool) {
	i := c.find(mem.BlockOf(a))
	if i < 0 {
		return Frame{}, false
	}
	return c.frame(i), true
}

// EchoVersion returns the stored version for a's block if an invalid frame
// still carries its tag — the condition under which the version-number DSI
// scheme attaches a version to the outgoing miss request.
//
//dsi:hotpath
func (c *Cache) EchoVersion(a mem.Addr) (uint8, bool) {
	b := mem.BlockOf(a)
	base := c.set(b)
	ways := c.tags[base : base+c.assoc]
	for i := range ways {
		if w := &ways[i]; w.tag == b && w.ep == c.epoch && w.state == Invalid {
			if l := &c.lines[base+i]; l.HasVer {
				return l.Ver, true
			}
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

// Install places a's block per *fill, returning a displaced valid block if
// any.
//
//dsi:hotpath
func (c *Cache) Install(a mem.Addr, fill *Fill) (Evicted, bool) {
	if fill.State == Invalid {
		panic("cache: installing Invalid")
	}
	b := mem.BlockOf(a)
	base := c.set(b)
	ways := c.tags[base : base+c.assoc]
	victim := -1
	// Prefer: frame already holding this tag (valid or not), then any
	// invalid frame, then LRU.
	for i := range ways {
		if w := &ways[i]; w.ep == c.epoch && w.tag == b && (w.state != Invalid || c.lines[base+i].HasVer) {
			victim = i
			break
		}
	}
	if victim < 0 {
		for i := range ways {
			if w := &ways[i]; w.ep != c.epoch || w.state == Invalid {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		// Every way is valid: the least recently used, rank 0, goes.
		for i := range ways {
			if ways[i].rank+uint8(i) == 0 {
				victim = i
				break
			}
		}
	}
	i := base + victim
	w, l := &c.tags[i], &c.lines[i]
	if w.ep != c.epoch {
		*w = way{ep: c.epoch, rank: w.rank}
		*l = line{}
	}
	var ev Evicted
	evicted := false
	if w.state != Invalid && w.tag != b {
		ev = Evicted{Addr: w.tag, State: w.state, Data: l.Data, SI: l.SI, TearOff: l.TearOff}
		evicted = true
		c.stats.Evictions++
	}
	w.tag = b
	w.state = fill.State
	c.promote(base, i)
	l.SI = fill.SI
	l.TearOff = fill.TearOff
	l.Ver = fill.Ver
	l.HasVer = fill.HasVer
	l.Data = fill.Data
	if fill.SI && !l.inList {
		l.inList = true
		c.marked = append(c.marked, int32(i))
	}
	return ev, evicted
}

// drop invalidates way i, keeping its tag and version, and returns the
// dropped copy.
//
//dsi:hotpath
func (c *Cache) drop(i int) Evicted {
	w, l := &c.tags[i], &c.lines[i]
	ev := Evicted{Addr: w.tag, State: w.state, Data: l.Data, SI: l.SI, TearOff: l.TearOff}
	w.state = Invalid
	l.SI = false
	l.TearOff = false
	return ev
}

// Invalidate drops the copy of a's block if present, retaining the tag and
// version so a later miss can echo it. It returns the dropped copy.
func (c *Cache) Invalidate(a mem.Addr) (Evicted, bool) {
	i := c.find(mem.BlockOf(a))
	if i < 0 {
		return Evicted{}, false
	}
	return c.drop(i), true
}

// Downgrade moves a's block from Exclusive to Shared, returning its data for
// the recall response.
func (c *Cache) Downgrade(a mem.Addr) (mem.Value, bool) {
	i := c.find(mem.BlockOf(a))
	if i < 0 || c.tags[i].state != Exclusive {
		return mem.Value{}, false
	}
	c.tags[i].state = Shared
	return c.lines[i].Data, true
}

// Mark sets the s bit on a's valid frame (cache-side identification) and
// enters it into the marked list. It reports whether a valid frame was
// marked (false if absent or already marked).
func (c *Cache) Mark(a mem.Addr) bool {
	i := c.find(mem.BlockOf(a))
	if i < 0 || c.lines[i].SI {
		return false
	}
	l := &c.lines[i]
	l.SI = true
	if !l.inList {
		l.inList = true
		c.marked = append(c.marked, int32(i))
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
	for _, i := range c.marked {
		l := &c.lines[i]
		l.inList = false
		if c.tags[i].state != Invalid && l.SI {
			ev := c.drop(int(i))
			ev.SI = true
			out = append(out, ev)
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
	i := c.find(mem.BlockOf(a))
	if i < 0 || !c.lines[i].SI {
		return Evicted{}, false
	}
	c.stats.SelfInvals++
	return c.drop(i), true
}

// Ways returns the cache's total number of ways (sets × associativity): the
// cost, in tag probes, of a full scan such as ForEachValid.
func (c *Cache) Ways() int { return len(c.tags) }

// ForEachValid calls fn for every valid frame, in way order, for checkers
// and audits.
func (c *Cache) ForEachValid(fn func(Frame)) {
	for i := range c.tags {
		if w := &c.tags[i]; w.ep == c.epoch && w.state != Invalid {
			fn(c.frame(i))
		}
	}
}

// CountValid returns the number of valid frames.
func (c *Cache) CountValid() int {
	n := 0
	c.ForEachValid(func(Frame) { n++ })
	return n
}
