// Package blockmap provides the block tables behind the simulator's
// per-block state: Map, a dense, address-indexed table, for the machine's
// home records (directory entry, transaction, queue and home memory image
// of each block), the audit's holder sets and the observability tracker;
// and List, a short scanned list for a table that only ever holds a few
// live records, such as a cache controller's outstanding misses and
// write-buffer entries.
//
// Map replaces the per-Addr Go hash maps those layers used before — a hash,
// a bucket probe, and a pointer chase per simulated access — with a flat
// slot array indexed by block number. A slot array spans the address
// space, so a Map belongs to a machine, not to each node.
//
// Simulated address spaces are block-aligned and bounded by mem.Layout, so
// a block index (Addr >> BlockShift) is a small dense integer: the common
// case is one bounds check and one slice load. Ad-hoc addresses beyond the
// dense bound (hand-built test rigs, replayed traces) fall back to a small
// open-addressing table, so correctness never depends on the layout.
//
// The package is deliberately free of simulator imports (records are keyed
// by raw uint64 block indexes, not mem.Addr) so that internal/mem itself can
// build on it without an import cycle.
//
// Design constraints of Map, in order:
//
//   - Stable pointers. Records live in fixed-size pages that are never
//     reallocated, so a *T returned by Get or Ensure stays valid for the
//     map's lifetime, so callers may hold them across calls.
//   - No deletion. Per-block records persist for the machine's lifetime;
//     "no transaction in flight" is a nil field inside the record, not an
//     absent key. This keeps the hot path free of tombstone handling and
//     makes record reuse across a machine Reset trivial.
//   - Deterministic iteration. ForEach visits records in insertion order,
//     which is itself deterministic (it follows the simulation's own event
//     order), so no caller needs to sort just to stay reproducible.
package blockmap

// DefaultDenseCap bounds the dense slot region of a zero-value Map: block
// indexes below it index the flat slot array (lazily grown as high indexes
// are touched), indexes at or above it go to the overflow table. 1<<22
// blocks is 128 MiB of simulated address space at the paper's 32-byte
// blocks — far above any configured workload — while capping the slot
// array at 16 MiB per map even under adversarial addresses.
const DefaultDenseCap = 1 << 22

const (
	pageBits = 8
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Map is a block-index-keyed table of T records. The zero value is an empty
// map with DefaultDenseCap; it must not be copied after first use (records
// hold into its pages).
type Map[T any] struct {
	idx index
	// pages stores the records: id i lives at pages[i>>pageBits][i&pageMask].
	// Pages are never reallocated, so record pointers are stable; Reset
	// keeps them for reuse.
	pages [][]T
}

// New returns a Map whose dense region covers block indexes below denseCap.
// Most callers can use the zero value; New exists for tests and for tables
// whose keys are known to be composite (and therefore sparse) from the
// start.
func New[T any](denseCap uint64) Map[T] {
	return Map[T]{idx: index{cap: denseCap}}
}

// Len returns the number of block records ever created (records are never
// deleted).
func (m *Map[T]) Len() int { return m.idx.n }

// at returns the record with id i.
//
//dsi:hotpath
func (m *Map[T]) at(i int32) *T {
	return &m.pages[i>>pageBits][i&pageMask]
}

// Get returns the record for block index idx, or nil if none was ever
// created. One bounds check and one slice load in the dense case.
//
//dsi:hotpath
func (m *Map[T]) Get(idx uint64) *T {
	if id := m.idx.get(idx); id >= 0 {
		return m.at(id)
	}
	return nil
}

// Ensure returns the record for block index idx, creating a zeroed record if
// none exists.
//
//dsi:hotpath
func (m *Map[T]) Ensure(idx uint64) *T {
	id, fresh := m.idx.ensure(idx)
	if !fresh {
		return m.at(id)
	}
	if int(id)>>pageBits == len(m.pages) {
		m.addPage()
	}
	p := m.at(id)
	var zero T
	*p = zero
	return p
}

// addPage appends one record page (cold path: a warm machine never grows).
func (m *Map[T]) addPage() {
	m.pages = append(m.pages, make([]T, pageSize))
}

// ForEach calls fn for every record in insertion order, which is
// deterministic: it follows the simulation's own first-touch order.
func (m *Map[T]) ForEach(fn func(idx uint64, r *T)) {
	for i := 0; i < m.idx.n; i++ {
		fn(m.idx.keys[i], m.at(int32(i)))
	}
}

// Reset empties the map while keeping every allocation — the slot array,
// the overflow table, and all record pages — so a reused machine reaches
// steady state with zero map growth. Records are re-zeroed on their next
// Ensure, not here.
func (m *Map[T]) Reset() {
	m.idx.reset()
}
