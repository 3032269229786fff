package blockmap

// index is Map's key machinery: it maps a raw block index to a small dense
// record id. Dense block indexes (below cap) resolve through a flat slot
// array — one bounds check and one slice load; sparse indexes fall back to
// an open-addressing table. The index knows nothing about record storage.
type index struct {
	// slots maps a dense block index to record id+1; 0 means absent. Grown
	// lazily in powers of two up to the dense cap.
	slots []int32
	// cap is the dense-region bound, fixed at first insert (DefaultDenseCap
	// for the zero value).
	cap uint64

	// Overflow open-addressing table for indexes >= cap. oKeys stores
	// index+1 so 0 can mean an empty slot; oIDs holds the record id.
	oKeys []uint64
	oIDs  []int32
	oLen  int

	// keys records each id's block index in insertion order (ForEach).
	keys []uint64
	n    int
}

// get returns the record id for idx, or -1 if none was ever created.
//
//dsi:hotpath
func (x *index) get(idx uint64) int32 {
	if idx < uint64(len(x.slots)) {
		return x.slots[idx] - 1
	}
	if x.oLen != 0 && idx >= x.cap {
		return x.getOverflow(idx)
	}
	return -1
}

// ensure returns the record id for idx, minting a new id if none exists.
// fresh reports whether the id was just minted (the caller must then zero
// the record storage for it).
//
//dsi:hotpath
func (x *index) ensure(idx uint64) (id int32, fresh bool) {
	if x.cap == 0 {
		x.cap = DefaultDenseCap
	}
	if idx < x.cap {
		if idx < uint64(len(x.slots)) {
			if s := x.slots[idx]; s != 0 {
				return s - 1, false
			}
		} else {
			x.growSlots(idx)
		}
		id := x.push(idx)
		x.slots[idx] = id + 1
		return id, true
	}
	return x.ensureOverflow(idx)
}

// reset empties the index while keeping the slot array and overflow table
// allocations.
func (x *index) reset() {
	clear(x.slots)
	clear(x.oKeys)
	x.oLen = 0
	x.keys = x.keys[:0]
	x.n = 0
}

// push mints a fresh id for idx.
func (x *index) push(idx uint64) int32 {
	id := int32(x.n)
	x.n++
	x.keys = append(x.keys, idx)
	return id
}

// growSlots extends the dense slot array to cover idx (next power of two,
// clamped to the dense cap). Growth happens on first touch of a new high
// block — setup and cold paths only; a warm machine never grows.
func (x *index) growSlots(idx uint64) {
	want := uint64(1024)
	for want <= idx {
		want <<= 1
	}
	if want > x.cap {
		want = x.cap
	}
	ns := make([]int32, want)
	copy(ns, x.slots)
	x.slots = ns
}

// getOverflow probes the open-addressing table for idx.
//
//dsi:hotpath
func (x *index) getOverflow(idx uint64) int32 {
	mask := uint64(len(x.oKeys) - 1)
	for h := hash(idx) & mask; ; h = (h + 1) & mask {
		k := x.oKeys[h]
		if k == 0 {
			return -1
		}
		if k == idx+1 {
			return x.oIDs[h]
		}
	}
}

// ensureOverflow is ensure's slow path for indexes beyond the dense cap.
func (x *index) ensureOverflow(idx uint64) (int32, bool) {
	if x.oLen*4 >= len(x.oKeys)*3 {
		x.growOverflow()
	}
	mask := uint64(len(x.oKeys) - 1)
	for h := hash(idx) & mask; ; h = (h + 1) & mask {
		k := x.oKeys[h]
		if k == idx+1 {
			return x.oIDs[h], false
		}
		if k == 0 {
			id := x.push(idx)
			x.oKeys[h] = idx + 1
			x.oIDs[h] = id
			x.oLen++
			return id, true
		}
	}
}

// growOverflow doubles the overflow table and rehashes the live keys.
func (x *index) growOverflow() {
	nlen := len(x.oKeys) * 2
	if nlen == 0 {
		nlen = 64
	}
	oldK, oldID := x.oKeys, x.oIDs
	x.oKeys = make([]uint64, nlen)
	x.oIDs = make([]int32, nlen)
	mask := uint64(nlen - 1)
	for i, k := range oldK {
		if k == 0 {
			continue
		}
		for h := hash(k-1) & mask; ; h = (h + 1) & mask {
			if x.oKeys[h] == 0 {
				x.oKeys[h] = k
				x.oIDs[h] = oldID[i]
				break
			}
		}
	}
}

// hash is the splitmix64 finalizer — strong enough to spread composite and
// strided block indexes across the overflow table.
//
//dsi:hotpath
func hash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
