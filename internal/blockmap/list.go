package blockmap

// List is a short table of live records keyed by block index: keys and
// records sit in two parallel slices that every call scans. It is the shape
// for a table that only ever holds a few live records, such as a cache
// controller's outstanding misses (at most one under sequential
// consistency) and write-buffer entries (at most the buffer's capacity): a
// scan over a few keys touches one or two host cache lines, where a Map's
// slot array spans the whole address space.
//
// Unlike Map, a List deletes: a record leaves when its block's entry
// retires, and the last record moves into its place, so iteration order is
// not insertion order. Get returns the zero T for an absent key, so a List
// of pointers reads nil for "none", like a Map record's nil field. The
// zero value is an empty list; Reset keeps its allocations.
//
// The scans live here rather than in the controllers: the protomodel
// extractor walks internal/proto path by path and treats a call into
// another package as one opaque step, while a loop in the controllers
// would multiply its paths past the step budget (docs/ANALYSIS.md).
type List[T any] struct {
	keys []uint64
	vals []T
}

// Len returns the number of live records.
//
//dsi:hotpath
func (l *List[T]) Len() int { return len(l.keys) }

// Get returns block index idx's record, or the zero T if it has none.
//
//dsi:hotpath
func (l *List[T]) Get(idx uint64) T {
	for i, k := range l.keys {
		if k == idx {
			return l.vals[i]
		}
	}
	var zero T
	return zero
}

// Put sets block index idx's record to v, adding it if idx has none.
//
//dsi:hotpath
func (l *List[T]) Put(idx uint64, v T) {
	for i, k := range l.keys {
		if k == idx {
			l.vals[i] = v
			return
		}
	}
	l.keys = append(l.keys, idx)
	l.vals = append(l.vals, v)
}

// Delete removes block index idx's record, if it has one. The last record
// takes its place.
//
//dsi:hotpath
func (l *List[T]) Delete(idx uint64) {
	for i, k := range l.keys {
		if k == idx {
			last := len(l.keys) - 1
			l.keys[i], l.vals[i] = l.keys[last], l.vals[last]
			var zero T
			l.vals[last] = zero
			l.keys, l.vals = l.keys[:last], l.vals[:last]
			return
		}
	}
}

// ForEach calls fn for every live record. fn must not change the list.
func (l *List[T]) ForEach(fn func(idx uint64, v T)) {
	for i, k := range l.keys {
		fn(k, l.vals[i])
	}
}

// Reset empties the list, keeping its allocations and dropping its
// references to the records.
func (l *List[T]) Reset() {
	clear(l.vals)
	l.keys, l.vals = l.keys[:0], l.vals[:0]
}
