package mem_test

import (
	"testing"

	"dsisim/internal/cache"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/proto"
)

// The home memory image of a block lives in internal/proto's per-block home
// record, beside its directory entry. These tests drive a 4-node machine
// through the controllers' public API and read the image as checkers do.

// homes wires a 4-node machine and returns its cache controllers, its
// directory controllers and its event queue.
func homes(t *testing.T) ([]*proto.CacheCtrl, []*proto.DirCtrl, *event.Queue) {
	t.Helper()
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
	return ccs, dcs, q
}

// writeBack has writer store word into a's block and then node 0 read it,
// so the home recalls the writer's copy into its memory image. It returns
// the block value the store made.
func writeBack(ccs []*proto.CacheCtrl, q *event.Queue, writer int, a mem.Addr, word uint64) mem.Value {
	st := proto.Store{Writer: writer, Seq: word, Word: word}
	t := q.Now() + 1
	q.At(t, func() { ccs[writer].Write(a, st, func(*proto.Result) {}) })
	q.At(t+10_000, func() { ccs[0].Read(a, func(*proto.Result) {}) })
	q.Run()
	var v mem.Value
	st.MergeInto(&v, a)
	return v
}

// TestMemoryReadWrite checks that a block's home memory reads zero until
// written, that a written-back value is read through every address in the
// block, and that the neighbouring block stays zero.
func TestMemoryReadWrite(t *testing.T) {
	ccs, dcs, q := homes(t)
	a := mem.Addr(2 * mem.BlockSize) // interleaved by block index: homed at node 2
	home := dcs[2]
	if !home.HomeValue(a).IsZero() {
		t.Fatal("fresh home memory not zero")
	}
	want := writeBack(ccs, q, 1, a, 9)
	if got := home.HomeValue(a + 8); got != want { // same block
		t.Fatalf("HomeValue(a+8) = %v, want %v", got, want)
	}
	if got := home.HomeValue(a + mem.BlockSize); !got.IsZero() {
		t.Fatalf("neighbouring block contaminated: %v", got)
	}
	if home.Entries() != 1 {
		t.Fatalf("Entries = %d, want 1", home.Entries())
	}
}

// TestMemoryForEach checks that ForEachEntry visits every block with a home
// record, every home's, in first-touch order and with its home memory image.
func TestMemoryForEach(t *testing.T) {
	ccs, dcs, q := homes(t)
	want := []mem.Value{
		writeBack(ccs, q, 1, 1*mem.BlockSize, 1), // homed at node 1
		writeBack(ccs, q, 2, 3*mem.BlockSize, 2), // homed at node 3
	}
	var blocks []mem.Addr
	var seen []mem.Value
	dcs[0].ForEachEntry(func(b mem.Addr, _ *directory.Entry, data *mem.Value) {
		blocks = append(blocks, b)
		seen = append(seen, *data)
	})
	if len(blocks) != 2 || blocks[0] != 1*mem.BlockSize || blocks[1] != 3*mem.BlockSize ||
		seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("ForEachEntry visited blocks %v with %v; want [32 96] with %v", blocks, seen, want)
	}
}
