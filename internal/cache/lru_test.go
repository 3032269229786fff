package cache

import (
	"testing"
	"unsafe"

	"dsisim/internal/mem"
	"dsisim/internal/rng"
)

// refCache is a timestamp-LRU reference for the cache's replacement: each
// way carries the clock of its last Install or Lookup hit, and a full set
// evicts its smallest stamp, as the cache did before its ranks moved into
// the tag array. It models only what replacement and flushing read: tags,
// validity, the epoch, the version a frame keeps while Invalid, and the s
// bit.
type refCache struct {
	assoc, sets int
	ways        []refWay
	clock       uint64
	epoch       uint32
}

type refWay struct {
	tag    mem.Addr
	ep     uint32
	valid  bool
	hasVer bool
	si     bool
	lru    uint64
}

func newRef(sets, assoc int) *refCache {
	return &refCache{assoc: assoc, sets: sets, ways: make([]refWay, sets*assoc)}
}

func (r *refCache) set(b mem.Addr) []refWay {
	s := int(mem.BlockIndex(b)) % r.sets * r.assoc
	return r.ways[s : s+r.assoc]
}

func (r *refCache) find(b mem.Addr) *refWay {
	for i, w := range r.set(b) {
		if w.ep == r.epoch && w.valid && w.tag == b {
			return &r.set(b)[i]
		}
	}
	return nil
}

func (r *refCache) lookup(b mem.Addr) bool {
	w := r.find(b)
	if w == nil {
		return false
	}
	r.clock++
	w.lru = r.clock
	return true
}

// install returns the valid block the fill displaces, if any.
func (r *refCache) install(b mem.Addr, si, hasVer bool) (mem.Addr, bool) {
	ways := r.set(b)
	v := -1
	for i, w := range ways {
		if w.ep == r.epoch && w.tag == b && (w.valid || w.hasVer) {
			v = i
			break
		}
	}
	if v < 0 {
		for i, w := range ways {
			if w.ep != r.epoch || !w.valid {
				v = i
				break
			}
		}
	}
	if v < 0 {
		v = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].lru < ways[v].lru {
				v = i
			}
		}
	}
	w := &ways[v]
	if w.ep != r.epoch {
		*w = refWay{ep: r.epoch}
	}
	old, evicted := w.tag, w.valid && w.tag != b
	r.clock++
	*w = refWay{tag: b, ep: r.epoch, valid: true, hasVer: hasVer, si: si, lru: r.clock}
	return old, evicted
}

func (r *refCache) invalidate(b mem.Addr) bool {
	w := r.find(b)
	if w == nil {
		return false
	}
	w.valid, w.si = false, false
	return true
}

func (r *refCache) mark(b mem.Addr) bool {
	w := r.find(b)
	if w == nil || w.si {
		return false
	}
	w.si = true
	return true
}

// flushed reports whether b's frame holds a marked valid copy, which the
// next MarkedFlush drops.
func (r *refCache) flushed(b mem.Addr) bool {
	w := r.find(b)
	return w != nil && w.si
}

func (r *refCache) reset() {
	r.epoch++
	r.clock = 0
}

// TestRankLRUMatchesTimestampLRU drives the cache and the timestamp-LRU
// reference through the same random streams of Lookup, Touch, Install,
// Invalidate, Mark, MarkedFlush and Reset on 2- and 4-way caches, and
// requires the same hits, the same victims and the same flushed blocks at
// every step.
func TestRankLRUMatchesTimestampLRU(t *testing.T) {
	const sets = 4
	for _, assoc := range []int{2, 4} {
		for seed := uint64(1); seed <= 20; seed++ {
			c := New(Config{SizeBytes: sets * assoc * mem.BlockSize, Assoc: assoc})
			ref := newRef(sets, assoc)
			r := rng.New(seed)
			// Three blocks per way keep every set contended.
			blocks := 3 * sets * assoc
			for step := 0; step < 4000; step++ {
				b := mem.Addr((1 + r.Intn(blocks)) * mem.BlockSize)
				fail := func(what string, got, want any) {
					t.Helper()
					t.Fatalf("%d-way seed %d step %d: %s of block %d: got %v, reference %v",
						assoc, seed, step, what, mem.BlockIndex(b), got, want)
				}
				switch op := r.Intn(100); {
				case op < 30:
					if _, hit := c.Lookup(b); hit != ref.lookup(b) {
						fail("Lookup", hit, !hit)
					}
				case op < 40:
					if hit := c.Touch(b); hit != ref.lookup(b) {
						fail("Touch", hit, !hit)
					}
				case op < 75:
					si, hasVer := r.Bool(0.2), r.Bool(0.3)
					st := Shared
					if r.Bool(0.3) {
						st = Exclusive
					}
					ev, evicted := c.Install(b, &Fill{State: st, SI: si, HasVer: hasVer})
					want, wantEvicted := ref.install(b, si, hasVer)
					if evicted != wantEvicted || (evicted && ev.Addr != want) {
						fail("Install victim", [2]any{evicted, mem.BlockIndex(ev.Addr)}, [2]any{wantEvicted, mem.BlockIndex(want)})
					}
				case op < 85:
					if _, had := c.Invalidate(b); had != ref.invalidate(b) {
						fail("Invalidate", had, !had)
					}
				case op < 93:
					if ok := c.Mark(b); ok != ref.mark(b) {
						fail("Mark", ok, !ok)
					}
				case op < 98:
					want := map[mem.Addr]bool{}
					for k := 1; k <= blocks; k++ {
						if a := mem.Addr(k * mem.BlockSize); ref.flushed(a) {
							want[a] = true
							ref.invalidate(a)
						}
					}
					evs := c.MarkedFlush()
					if len(evs) != len(want) {
						fail("MarkedFlush count", len(evs), len(want))
					}
					for _, ev := range evs {
						if !want[ev.Addr] {
							fail("MarkedFlush block", mem.BlockIndex(ev.Addr), "not marked")
						}
					}
				default:
					c.Reset()
					ref.reset()
				}
			}
		}
	}
}

// A set's ranks stay a permutation of 0..assoc-1 through fills, hits and
// resets, starting from the all-zero tag array of a new cache.
func TestRanksStayPermutation(t *testing.T) {
	const sets, assoc = 2, 4
	c := New(Config{SizeBytes: sets * assoc * mem.BlockSize, Assoc: assoc})
	r := rng.New(9)
	check := func(step int) {
		t.Helper()
		for s := 0; s < sets; s++ {
			seen := 0
			for i := 0; i < assoc; i++ {
				rank := int(c.tags[s*assoc+i].rank + uint8(i))
				if rank >= assoc || seen&(1<<rank) != 0 {
					t.Fatalf("step %d: set %d ranks are not a permutation: way %d has rank %d", step, s, i, rank)
				}
				seen |= 1 << rank
			}
		}
	}
	check(-1)
	for step := 0; step < 2000; step++ {
		b := mem.Addr((1 + r.Intn(5*sets*assoc)) * mem.BlockSize)
		switch r.Intn(4) {
		case 0:
			c.Lookup(b)
		case 1:
			c.Invalidate(b)
		case 2:
			if r.Bool(0.02) {
				c.Reset()
			}
		default:
			c.Install(b, &Fill{State: Shared})
		}
		check(step)
	}
}

// The tag array keeps its 16-byte ways (four to a 64-byte host line) with
// the rank inside, and a data line still fits one host line.
func TestArrayEntrySizes(t *testing.T) {
	if s := unsafe.Sizeof(way{}); s != 16 {
		t.Errorf("way is %d bytes, want 16", s)
	}
	if s := unsafe.Sizeof(line{}); s != 64 {
		t.Errorf("line is %d bytes, want 64", s)
	}
}

func TestValidateBoundsAssoc(t *testing.T) {
	for _, c := range []struct {
		assoc int
		ok    bool
	}{{1, true}, {MaxAssoc, true}, {MaxAssoc + 1, false}, {0, false}} {
		cfg := Config{SizeBytes: c.assoc * mem.BlockSize, Assoc: c.assoc}
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("Assoc %d: Validate() = %v, want ok=%v", c.assoc, err, c.ok)
		}
	}
}

// A MaxAssoc-way cache ranks all its ways in one byte each: filling its one
// set and touching way 0 makes way 1 the victim.
func TestMaxAssocLRU(t *testing.T) {
	c := New(Config{SizeBytes: MaxAssoc * mem.BlockSize, Assoc: MaxAssoc})
	for i := 0; i < MaxAssoc; i++ {
		c.Install(mem.Addr((i+1)*mem.BlockSize), &Fill{State: Shared})
	}
	c.Lookup(mem.Addr(mem.BlockSize))
	ev, evicted := c.Install(mem.Addr((MaxAssoc+1)*mem.BlockSize), &Fill{State: Shared})
	if !evicted || ev.Addr != mem.Addr(2*mem.BlockSize) {
		t.Fatalf("evicted %v %#x, want block 2", evicted, uint64(ev.Addr))
	}
}
