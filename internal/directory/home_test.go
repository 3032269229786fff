package directory_test

import (
	"testing"

	"dsisim/internal/cache"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/proto"
)

// TestDirEntryOnDemand checks how a machine's directory entries come to be.
// They live in internal/proto's per-block home records, so the test drives a
// 4-node machine through the controllers' public API: a block has no entry
// until a request reaches its home, the first request creates one entry with
// no last owner, every address in the block and every home's controller find
// that same entry, the neighbouring block gains none, and ForEachEntry visits
// just it.
func TestDirEntryOnDemand(t *testing.T) {
	const nodes = 4
	q := &event.Queue{}
	net := netsim.New(q, netsim.Config{Nodes: nodes, Latency: 10})
	env := &proto.Env{Q: q, Net: net, Layout: mem.NewLayout(nodes), CheckFail: t.Fatalf}
	var ccs []*proto.CacheCtrl
	var dcs []*proto.DirCtrl
	for i := 0; i < nodes; i++ {
		cc := proto.NewCacheCtrl(env, i, proto.Config{}, cache.Config{SizeBytes: 16 * mem.BlockSize, Assoc: 4})
		dc := proto.NewDirCtrl(env, i, proto.Config{})
		net.SetHandler(i, func(m *netsim.Message) {
			switch m.Kind {
			case netsim.Inv, netsim.Recall, netsim.DataS, netsim.DataX, netsim.AckX, netsim.FinalAck:
				cc.Handle(m)
			default:
				dc.Handle(m)
			}
		})
		ccs = append(ccs, cc)
		dcs = append(dcs, dc)
	}
	a := mem.Addr(2 * mem.BlockSize) // interleaved by block index: homed at node 2
	home := dcs[2]
	if _, ok := home.Peek(a); ok || home.Entries() != 0 {
		t.Fatal("an entry exists before any request")
	}
	q.At(0, func() { ccs[1].Read(a, func(*proto.Result) {}) })
	q.Run()
	e, ok := home.Peek(a)
	if !ok || e.State != directory.Shared || !e.Sharers.Only(1) || e.LastOwner != -1 {
		t.Fatalf("after node 1's read: entry %+v (found %v), want Shared by node 1 with no last owner", e, ok)
	}
	if e2, _ := dcs[0].Peek(a + 8); e2 != e {
		t.Fatal("another address in the block, or another home's controller, found a different entry")
	}
	if _, ok := home.Peek(a + mem.BlockSize); ok {
		t.Fatal("the neighbouring block gained an entry")
	}
	n := 0
	home.ForEachEntry(func(b mem.Addr, got *directory.Entry, _ *mem.Value) {
		n++
		if b != a || got != e {
			t.Errorf("ForEachEntry visited %#x entry %p; want %#x entry %p", uint64(b), got, uint64(a), e)
		}
	})
	if n != 1 || home.Entries() != 1 {
		t.Fatalf("ForEachEntry visited %d entries, Entries = %d; want 1", n, home.Entries())
	}
}
