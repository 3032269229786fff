package blockmap

import (
	"slices"
	"sort"
	"testing"
)

// contents returns the list's records as a key-sorted slice of pairs.
func contents(l *List[*int]) [][2]uint64 {
	var out [][2]uint64
	l.ForEach(func(idx uint64, v *int) { out = append(out, [2]uint64{idx, uint64(*v)}) })
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func TestListZeroValueEmpty(t *testing.T) {
	var l List[*int]
	if l.Len() != 0 || l.Get(0) != nil || l.Get(1<<40) != nil {
		t.Fatalf("zero List: Len %d, Get(0) %v, Get(1<<40) %v", l.Len(), l.Get(0), l.Get(1<<40))
	}
	l.Delete(7) // deleting an absent key is a no-op
	if l.Len() != 0 {
		t.Fatalf("Len after deleting an absent key = %d", l.Len())
	}
}

func TestListPutGetReplace(t *testing.T) {
	var l List[*int]
	a, b, c := 1, 2, 3
	l.Put(10, &a)
	l.Put(1<<40, &b) // keys need not be dense
	if l.Len() != 2 || l.Get(10) != &a || l.Get(1<<40) != &b || l.Get(11) != nil {
		t.Fatalf("after two puts: Len %d, Get(10) %v, Get(1<<40) %v, Get(11) %v",
			l.Len(), l.Get(10), l.Get(1<<40), l.Get(11))
	}
	l.Put(10, &c) // a second put replaces the record
	if l.Len() != 2 || l.Get(10) != &c {
		t.Fatalf("after replacing: Len %d, Get(10) %v, want %p", l.Len(), l.Get(10), &c)
	}
}

func TestListDeleteMiddle(t *testing.T) {
	var l List[*int]
	vals := make([]int, 5)
	for i := range vals {
		vals[i] = i * 100
		l.Put(uint64(i), &vals[i])
	}
	l.Delete(2) // the middle record
	if l.Len() != 4 || l.Get(2) != nil {
		t.Fatalf("after deleting key 2: Len %d, Get(2) %v", l.Len(), l.Get(2))
	}
	want := [][2]uint64{{0, 0}, {1, 100}, {3, 300}, {4, 400}}
	if got := contents(&l); !slices.Equal(got, want) {
		t.Fatalf("after deleting key 2: %v, want %v", got, want)
	}
	l.Delete(0) // the first
	l.Delete(4) // and whichever record is last by now
	want = [][2]uint64{{1, 100}, {3, 300}}
	if got := contents(&l); !slices.Equal(got, want) {
		t.Fatalf("after deleting keys 0 and 4: %v, want %v", got, want)
	}
	for _, k := range []uint64{1, 3} {
		if p := l.Get(k); p == nil || *p != int(k)*100 {
			t.Fatalf("Get(%d) = %v after deletes", k, p)
		}
	}
}

func TestListResetAndReuse(t *testing.T) {
	var l List[*int]
	vals := []int{1, 2, 3}
	for i := range vals {
		l.Put(uint64(i+1), &vals[i])
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Len after Reset = %d", l.Len())
	}
	for k := uint64(0); k < 5; k++ {
		if p := l.Get(k); p != nil {
			t.Fatalf("Get(%d) = %v after Reset", k, p)
		}
	}
	// The dropped records are no longer referenced from the kept arrays.
	for i, v := range l.vals[:cap(l.vals)] {
		if v != nil {
			t.Fatalf("slot %d still holds %p after Reset", i, v)
		}
	}
	x, y := 7, 8
	l.Put(2, &x)
	l.Put(9, &y)
	want := [][2]uint64{{2, 7}, {9, 8}}
	if got := contents(&l); !slices.Equal(got, want) {
		t.Fatalf("after reuse: %v, want %v", got, want)
	}
	l.Delete(2)
	if l.Len() != 1 || l.Get(9) != &y || l.Get(2) != nil {
		t.Fatalf("after deleting from a reused list: Len %d, Get(9) %v, Get(2) %v", l.Len(), l.Get(9), l.Get(2))
	}
}

// A warm list allocates nothing on Put, Get, Delete or Reset.
func TestListWarmAllocFree(t *testing.T) {
	var l List[*int]
	v := 1
	for i := uint64(0); i < 17; i++ {
		l.Put(i, &v)
	}
	l.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 17; i++ {
			l.Put(i, &v)
		}
		_ = l.Get(16)
		l.Delete(3)
		l.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm List allocates %.1f times per round", allocs)
	}
}
