// Package mem defines the simulated physical address space: block geometry,
// region allocation with placement policies, the home-node map, and the
// block contents (Value) that caches, messages and home memory carry.
//
// The paper's machine uses 32-byte cache blocks; that geometry is fixed here
// as constants and shared by every other package.
package mem

import (
	"fmt"
	"slices"

	"dsisim/internal/blockmap"
)

// Block geometry, fixed to the paper's configuration.
const (
	BlockShift = 5               // log2(block size)
	BlockSize  = 1 << BlockShift // 32 bytes
	BlockMask  = ^Addr(BlockSize - 1)
)

// Addr is a byte address in the simulated shared address space.
type Addr uint64

// BlockOf returns the address of the block containing a.
func BlockOf(a Addr) Addr { return a & BlockMask }

// BlockIndex returns a's block number (address / 32).
func BlockIndex(a Addr) uint64 { return uint64(a) >> BlockShift }

// Placement selects how a region's blocks map to home nodes.
type Placement int

const (
	// Local places every block of the region at one node. Used for
	// per-processor private heaps and locally-allocated shared data (the
	// EM3D style where writes always occur at the home).
	Local Placement = iota
	// Interleaved places consecutive blocks round-robin across all nodes,
	// the default for shared arrays without a better mapping.
	Interleaved
	// Blocked splits the region into contiguous per-node chunks, matching
	// row-partitioned grids where each processor's slice is homed with it.
	Blocked
)

func (p Placement) String() string {
	switch p {
	case Local:
		return "local"
	case Interleaved:
		return "interleaved"
	case Blocked:
		return "blocked"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Region is a contiguous allocated range of the address space with one
// placement policy.
type Region struct {
	Name  string
	Base  Addr
	Size  uint64 // bytes, multiple of BlockSize
	Place Placement
	Node  int // for Local placement
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool {
	return a >= r.Base && uint64(a-r.Base) < r.Size
}

// End returns the first address past the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Addr returns the address at byte offset off into the region, panicking on
// overflow so workload indexing bugs surface immediately.
func (r Region) Addr(off uint64) Addr {
	if off >= r.Size {
		panic(fmt.Sprintf("mem: offset %d out of region %q (size %d)", off, r.Name, r.Size))
	}
	return r.Base + Addr(off)
}

// Layout is the machine's address map: an allocator plus the home function.
// It is not safe for concurrent use; workloads allocate during setup only.
type Layout struct {
	nodes   int
	next    Addr
	regions []Region // sorted by Base

	// homes holds the home node of every block below next, indexed by block
	// number, so Home is one slice load. It is filled one region at a time
	// as regions are allocated and stops at blockmap.DefaultDenseCap blocks
	// (4 MiB of table); Home searches the regions for blocks past it.
	homes []uint8
}

// NewLayout returns an empty layout for a machine with nodes processor
// nodes. Allocation starts above address 0 so that the zero Addr can be
// treated as "no address" by callers.
func NewLayout(nodes int) *Layout {
	if nodes <= 0 {
		panic("mem: layout needs at least one node")
	}
	return &Layout{nodes: nodes, next: BlockSize}
}

// Nodes returns the node count the layout was built for.
func (l *Layout) Nodes() int { return l.nodes }

// Reset forgets all allocations (keeping the region slice's capacity) so a
// reused machine can run a fresh program's setup. The node count is fixed.
func (l *Layout) Reset() {
	l.next = BlockSize
	l.regions = l.regions[:0]
	l.homes = l.homes[:0]
}

// Regions returns the allocated regions in address order.
func (l *Layout) Regions() []Region { return l.regions }

func (l *Layout) alloc(name string, size uint64, place Placement, node int) Region {
	if size == 0 {
		panic(fmt.Sprintf("mem: zero-size region %q", name))
	}
	if node < 0 || node >= l.nodes {
		panic(fmt.Sprintf("mem: region %q node %d out of range", name, node))
	}
	size = (size + BlockSize - 1) &^ (BlockSize - 1)
	r := Region{Name: name, Base: l.next, Size: size, Place: place, Node: node}
	l.next += Addr(size)
	l.regions = append(l.regions, r)
	l.fillHomes(r)
	return r
}

// fillHomes extends the home table over region r, which starts at or past
// the table's end: the blocks before r (block 0, which no region holds) get
// the unallocated interleaving, r's blocks their placement's homes. Each
// placement is a repeating pattern, written once and then doubled by copy.
// Blocks at or past blockmap.DefaultDenseCap, and every block of a layout
// with more nodes than a byte can name, stay out of the table.
func (l *Layout) fillHomes(r Region) {
	first := BlockIndex(r.Base)
	end := min(BlockIndex(r.End()), blockmap.DefaultDenseCap)
	if l.nodes > 1<<8 || end <= first {
		return
	}
	for i := uint64(len(l.homes)); i < first; i++ {
		l.homes = append(l.homes, uint8(i%uint64(l.nodes)))
	}
	start := len(l.homes)
	l.homes = slices.Grow(l.homes, int(end-first))[:start+int(end-first)]
	h := l.homes[start:]
	switch r.Place {
	case Local:
		h[0] = uint8(r.Node)
		repeat(h, 1)
	case Interleaved:
		n := min(l.nodes, len(h))
		for i := range n {
			h[i] = uint8(i)
		}
		repeat(h, n)
	case Blocked:
		// Block k of the region is homed at k*nodes/blocks: node j's run
		// starts at the first k with k*nodes >= j*blocks.
		blocks, nodes := r.Size/BlockSize, uint64(l.nodes)
		for j := uint64(0); j < nodes; j++ {
			lo := min((j*blocks+nodes-1)/nodes, uint64(len(h)))
			hi := min(((j+1)*blocks+nodes-1)/nodes, uint64(len(h)))
			if lo < hi {
				h[lo] = uint8(j)
				repeat(h[lo:hi], 1)
			}
		}
	default:
		panic("mem: unknown placement")
	}
}

// repeat fills h with copies of its first n bytes, doubling the filled
// prefix with each copy.
func repeat(h []uint8, n int) {
	for n < len(h) {
		n += copy(h[n:], h[:n])
	}
}

// AllocLocal allocates size bytes homed entirely at node.
func (l *Layout) AllocLocal(name string, size uint64, node int) Region {
	return l.alloc(name, size, Local, node)
}

// AllocInterleaved allocates size bytes with blocks homed round-robin.
func (l *Layout) AllocInterleaved(name string, size uint64) Region {
	return l.alloc(name, size, Interleaved, 0)
}

// AllocBlocked allocates size bytes split into contiguous per-node chunks.
func (l *Layout) AllocBlocked(name string, size uint64) Region {
	return l.alloc(name, size, Blocked, 0)
}

// find returns the index of the region containing a, or -1 if a is
// unallocated: a binary search for the first region ending past a.
//
//dsi:hotpath
func (l *Layout) find(a Addr) int {
	lo, hi := 0, len(l.regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.regions[mid].End() > a {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(l.regions) && l.regions[lo].Contains(a) {
		return lo
	}
	return -1
}

// RegionOf returns the region containing a, or false if a is unallocated.
func (l *Layout) RegionOf(a Addr) (Region, bool) {
	if i := l.find(a); i >= 0 {
		return l.regions[i], true
	}
	return Region{}, false
}

// Home returns the home node of the block containing a. Unallocated
// addresses interleave by block index, so ad-hoc test addresses still have a
// well-defined home.
//
//dsi:hotpath
func (l *Layout) Home(a Addr) int {
	if b := BlockIndex(a); b < uint64(len(l.homes)) {
		return int(l.homes[b])
	}
	return l.searchHome(a)
}

// searchHome is Home for a block the home table does not cover: it finds
// the block's region by binary search.
func (l *Layout) searchHome(a Addr) int {
	i := l.find(a)
	if i < 0 {
		return int(BlockIndex(a)) % l.nodes
	}
	r := &l.regions[i]
	switch r.Place {
	case Local:
		return r.Node
	case Interleaved:
		return int(BlockIndex(a)-BlockIndex(r.Base)) % l.nodes
	case Blocked:
		blocks := r.Size / BlockSize
		idx := BlockIndex(a) - BlockIndex(r.Base)
		return int(idx * uint64(l.nodes) / blocks)
	default:
		panic("mem: unknown placement")
	}
}

// WordsPerBlock is how many 8-byte data words one cache block holds.
const WordsPerBlock = BlockSize / 8

// WordIndex returns which of the block's words address a selects.
func WordIndex(a Addr) int { return int(a>>3) & (WordsPerBlock - 1) }

// Value is the contents of a block: a coherence-checking token (who wrote
// the block last, and that writer's store sequence number) plus the
// block's four 8-byte data words, used by synchronization variables and
// workload generation counters. The zero Value is the initial contents of
// all memory.
type Value struct {
	Writer int
	Seq    uint64
	Words  [WordsPerBlock]uint64
}

// WordAt returns the data word address a selects within the block.
func (v Value) WordAt(a Addr) uint64 { return v.Words[WordIndex(a)] }

// IsZero reports whether v is the initial (never written) value.
func (v Value) IsZero() bool { return v == Value{} }

func (v Value) String() string {
	if v.IsZero() {
		return "<init>"
	}
	return fmt.Sprintf("w%d#%d%v", v.Writer, v.Seq, v.Words)
}
