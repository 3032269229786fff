package simcache

// sketch is a count-min sketch of recent request counts, the frequency
// filter of TinyLFU (Einziger et al., ACM TOS 2017): four rows of counters,
// one byte each, that saturate at 15. Every counter halves after each 10×
// width requests, so a key's count fades once it stops being asked for. A
// key's count is its smallest counter across the rows; collisions can only
// raise it.
type sketch struct {
	rows [4][]uint8
	mask uint64
	adds int // requests since the last halving
}

// newSketch returns a sketch for a cache holding resident results: each
// row is the smallest power of two at least 8× that wide.
func newSketch(resident int) *sketch {
	w := 1
	for w < 8*resident {
		w <<= 1
	}
	s := &sketch{mask: uint64(w - 1)}
	for i := range s.rows {
		s.rows[i] = make([]uint8, w)
	}
	return s
}

// slots returns the key's two hashes; row i's counter is (h1 + i·h2) & mask.
// Keys are digests already, but tests build them by hand, so both halves
// are mixed in.
func slots(k Key) (h1, h2 uint64) {
	h := mix(k.Hi ^ mix(k.Lo))
	return h, h>>32 | 1
}

// add counts one request for k.
func (s *sketch) add(k Key) {
	h1, h2 := slots(k)
	for i := range s.rows {
		if c := &s.rows[i][(h1+uint64(i)*h2)&s.mask]; *c < 15 {
			*c++
		}
	}
	if s.adds++; s.adds == 10*len(s.rows[0]) {
		s.adds = 0
		for _, row := range s.rows {
			for j := range row {
				row[j] >>= 1
			}
		}
	}
}

// count returns k's estimated recent request count.
func (s *sketch) count(k Key) uint8 {
	h1, h2 := slots(k)
	n := uint8(15)
	for i := range s.rows {
		n = min(n, s.rows[i][(h1+uint64(i)*h2)&s.mask])
	}
	return n
}
