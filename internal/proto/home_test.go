package proto

import (
	"testing"
	"unsafe"

	"dsisim/internal/mem"
)

// TestBusyViewsPerHome opens a transaction at each of two homes and checks
// that each home's BusyBlocks and DumpBusy see only its own block, though
// every home keeps its transactions in the machine's one shared table.
func TestBusyViewsPerHome(t *testing.T) {
	r := newRig(t, rigOpts{nodes: 4, latency: 1000, cfg: scCfg()})
	a1 := mem.Addr(1 * mem.BlockSize) // interleaved by block index: homed at node 1
	a2 := mem.Addr(2 * mem.BlockSize) // homed at node 2
	// Node 3 takes both blocks exclusive, one at a time.
	r.write(0, 3, a1, 1)
	r.write(10_000, 3, a2, 2)
	r.run()
	// Nodes 0 and 1 then read them at once, so each home recalls node 3's
	// copy; the recalls are on the wire at t0+2,500, their acks not yet home.
	t0 := r.q.Now() + 1
	r.read(t0, 0, a1)
	r.read(t0, 1, a2)
	busy := make([]int, 4)
	dumps := make([][]BusyTxn, 4)
	r.at(t0+2_500, func() {
		for n, dc := range r.dcs {
			busy[n], dumps[n] = dc.BusyBlocks(), dc.DumpBusy()
		}
	})
	r.run()
	for n, want := range []mem.Addr{0, a1, a2, 0} {
		if want == 0 {
			if busy[n] != 0 || len(dumps[n]) != 0 {
				t.Errorf("home %d: %d busy blocks, dump %+v; want none", n, busy[n], dumps[n])
			}
			continue
		}
		if busy[n] != 1 || len(dumps[n]) != 1 || dumps[n][0].Addr != want || dumps[n][0].From != n-1 {
			t.Errorf("home %d: %d busy blocks, dump %+v; want one, block %#x from node %d", n, busy[n], dumps[n], uint64(want), n-1)
		}
	}
	for n, dc := range r.dcs {
		if b := dc.BusyBlocks(); b != 0 {
			t.Errorf("home %d: %d busy blocks after quiescing", n, b)
		}
	}
}

// TestHomeBlockLayout pins the record layout DESIGN.md §5 describes: the
// directory entry and the transaction pointer fill the first 64 bytes, so
// a request's busy probe and entry share a host cache line, and the home
// memory image and queue links fill the second.
func TestHomeBlockLayout(t *testing.T) {
	var hb homeBlock
	if off, size := unsafe.Offsetof(hb.data), unsafe.Sizeof(hb); off != 64 || size != 128 {
		t.Fatalf("homeBlock: data at offset %d, size %d; want 64 and 128", off, size)
	}
}
