package mem

import (
	"testing"
	"testing/quick"

	"dsisim/internal/blockmap"
)

func TestBlockOf(t *testing.T) {
	cases := []struct{ in, want Addr }{
		{0, 0}, {1, 0}, {31, 0}, {32, 32}, {63, 32}, {100, 96},
	}
	for _, c := range cases {
		if got := BlockOf(c.in); got != c.want {
			t.Errorf("BlockOf(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAllocRoundsToBlocks(t *testing.T) {
	l := NewLayout(4)
	r := l.AllocInterleaved("a", 33)
	if r.Size != 64 {
		t.Fatalf("size = %d, want 64 (rounded to blocks)", r.Size)
	}
	if r.Base%BlockSize != 0 {
		t.Fatalf("base %d not block aligned", r.Base)
	}
}

func TestRegionsDisjointAndOrdered(t *testing.T) {
	l := NewLayout(2)
	a := l.AllocLocal("a", 100, 0)
	b := l.AllocInterleaved("b", 200)
	c := l.AllocBlocked("c", 300)
	if a.End() > b.Base || b.End() > c.Base {
		t.Fatal("regions overlap")
	}
	if got, ok := l.RegionOf(b.Addr(5)); !ok || got.Name != "b" {
		t.Fatalf("RegionOf landed in %q", got.Name)
	}
	if _, ok := l.RegionOf(c.End()); ok {
		t.Fatal("RegionOf found a region past the last allocation")
	}
}

func TestHomeLocal(t *testing.T) {
	l := NewLayout(8)
	r := l.AllocLocal("priv3", 1024, 3)
	for off := uint64(0); off < r.Size; off += BlockSize {
		if h := l.Home(r.Addr(off)); h != 3 {
			t.Fatalf("home of local region offset %d = %d, want 3", off, h)
		}
	}
}

func TestHomeInterleaved(t *testing.T) {
	l := NewLayout(4)
	r := l.AllocInterleaved("arr", 16*BlockSize)
	for i := uint64(0); i < 16; i++ {
		want := int(i % 4)
		if h := l.Home(r.Addr(i * BlockSize)); h != want {
			t.Fatalf("block %d home = %d, want %d", i, h, want)
		}
	}
}

func TestHomeBlockedCoversAllNodesEvenly(t *testing.T) {
	l := NewLayout(4)
	const blocks = 64
	r := l.AllocBlocked("grid", blocks*BlockSize)
	counts := make([]int, 4)
	prev := -1
	for i := uint64(0); i < blocks; i++ {
		h := l.Home(r.Addr(i * BlockSize))
		if h < prev {
			t.Fatalf("blocked homes not monotonic: block %d home %d after %d", i, h, prev)
		}
		prev = h
		counts[h]++
	}
	for n, c := range counts {
		if c != blocks/4 {
			t.Fatalf("node %d homes %d blocks, want %d", n, c, blocks/4)
		}
	}
}

func TestHomeUnallocatedStillDefined(t *testing.T) {
	l := NewLayout(4)
	for i := 0; i < 100; i++ {
		a := Addr(i * BlockSize * 7)
		if h := l.Home(a); h < 0 || h >= 4 {
			t.Fatalf("home(%d) = %d out of range", a, h)
		}
	}
}

// checkHomeTable compares Home, which reads the home table, with the region
// search behind it for every block from 0 to past the layout's end.
func checkHomeTable(t *testing.T, l *Layout, what string) {
	t.Helper()
	end := BlockIndex(l.next) + 64
	for b := uint64(0); b < end; b++ {
		a := Addr(b) << BlockShift
		if got, want := l.Home(a), l.searchHome(a); got != want {
			t.Fatalf("%s: block %d: Home %d, region search %d", what, b, got, want)
		}
	}
}

func TestHomeTableMatchesSearch(t *testing.T) {
	for _, nodes := range []int{1, 3, 4, 7, 32, 64} {
		l := NewLayout(nodes)
		l.AllocLocal("local", 5*BlockSize+3, nodes-1)
		l.AllocInterleaved("inter", 37*BlockSize)
		l.AllocBlocked("small", 3*BlockSize) // fewer blocks than most node counts
		l.AllocBlocked("odd", 101*BlockSize)
		l.AllocBlocked("even", uint64(nodes)*8*BlockSize)
		l.AllocInterleaved("one", 1)
		l.AllocLocal("node0", 2*BlockSize, 0)
		if got := uint64(len(l.homes)); got != BlockIndex(l.next) {
			t.Fatalf("%d nodes: home table covers %d blocks, layout %d", nodes, got, BlockIndex(l.next))
		}
		checkHomeTable(t, l, "fresh")

		// A reset layout rebuilds the table for its new regions.
		l.Reset()
		checkHomeTable(t, l, "reset")
		l.AllocBlocked("grid", 77*BlockSize)
		l.AllocLocal("priv", 9*BlockSize, nodes/2)
		l.AllocInterleaved("shared", 13*BlockSize)
		checkHomeTable(t, l, "reset and reallocated")
	}
}

func TestHomeTableStopsAtDenseCap(t *testing.T) {
	l := NewLayout(4)
	l.AllocInterleaved("low", 8*BlockSize)
	// A region that crosses the table's bound: its blocks past the bound
	// take the region search.
	big := l.AllocBlocked("big", (blockmap.DefaultDenseCap-4)*BlockSize)
	if got := uint64(len(l.homes)); got != blockmap.DefaultDenseCap {
		t.Fatalf("home table covers %d blocks, want the cap %d", got, uint64(blockmap.DefaultDenseCap))
	}
	past := l.AllocLocal("past", 4*BlockSize, 3)
	for _, a := range []Addr{big.Base, big.End() - BlockSize, Addr(blockmap.DefaultDenseCap-1) << BlockShift,
		Addr(blockmap.DefaultDenseCap) << BlockShift, past.Base, past.End(), past.End() + 5*BlockSize} {
		if got, want := l.Home(a), l.searchHome(a); got != want {
			t.Fatalf("block %d: Home %d, region search %d", BlockIndex(a), got, want)
		}
	}
	if h := l.Home(past.Base); h != 3 {
		t.Fatalf("local region past the cap homed at %d, want 3", h)
	}
}

func TestHomeStableWithinBlockProperty(t *testing.T) {
	l := NewLayout(6)
	l.AllocLocal("a", 4096, 5)
	l.AllocInterleaved("b", 4096)
	l.AllocBlocked("c", 4096)
	f := func(raw uint32, off uint8) bool {
		a := Addr(raw)
		return l.Home(a) == l.Home(BlockOf(a)+Addr(off%BlockSize))
		// every byte of one block must share a home
	}
	// Constrain raw to the allocated range for better coverage.
	g := func(raw uint16, off uint8) bool {
		a := Addr(BlockSize) + Addr(raw)%Addr(3*4096)
		return l.Home(a) == l.Home(BlockOf(a)+Addr(off%BlockSize))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegionAddrPanicsOutOfRange(t *testing.T) {
	l := NewLayout(2)
	r := l.AllocInterleaved("a", 64)
	defer func() {
		if recover() == nil {
			t.Error("Region.Addr past the end did not panic")
		}
	}()
	r.Addr(64)
}

func TestValueString(t *testing.T) {
	if s := (Value{}).String(); s != "<init>" {
		t.Fatalf("zero value string = %q", s)
	}
	if s := (Value{Writer: 2, Seq: 7}).String(); s != "w2#7[0 0 0 0]" {
		t.Fatalf("value string = %q", s)
	}
}

func TestPlacementString(t *testing.T) {
	if Local.String() != "local" || Interleaved.String() != "interleaved" || Blocked.String() != "blocked" {
		t.Fatal("placement names wrong")
	}
	if Placement(9).String() != "Placement(9)" {
		t.Fatal("unknown placement not formatted defensively")
	}
}

func TestLayoutAccessors(t *testing.T) {
	l := NewLayout(4)
	if l.Nodes() != 4 {
		t.Fatalf("nodes = %d", l.Nodes())
	}
	l.AllocLocal("a", 64, 1)
	l.AllocBlocked("b", 64)
	rs := l.Regions()
	if len(rs) != 2 || rs[0].Name != "a" || rs[1].Name != "b" {
		t.Fatalf("regions = %+v", rs)
	}
}

func TestLayoutPanics(t *testing.T) {
	cases := []func(){
		func() { NewLayout(0) },
		func() { NewLayout(2).AllocLocal("z", 0, 0) },
		func() { NewLayout(2).AllocLocal("n", 64, 5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestWordIndexAndWordAt(t *testing.T) {
	var v Value
	for i := 0; i < WordsPerBlock; i++ {
		v.Words[i] = uint64(100 + i)
	}
	base := Addr(3 * BlockSize)
	for i := 0; i < WordsPerBlock; i++ {
		a := base + Addr(i*8)
		if WordIndex(a) != i {
			t.Fatalf("WordIndex(%d) = %d, want %d", a, WordIndex(a), i)
		}
		if v.WordAt(a) != uint64(100+i) {
			t.Fatalf("WordAt(%d) = %d", a, v.WordAt(a))
		}
		// Sub-word addresses select the same word.
		if WordIndex(a+3) != i {
			t.Fatalf("WordIndex(%d) = %d, want %d", a+3, WordIndex(a+3), i)
		}
	}
}
