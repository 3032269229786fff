package proto

import (
	"testing"

	"dsisim/internal/directory"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
)

// BenchmarkDirHandle times one read miss at the home: a GetS through
// DirCtrl.Handle, the directory occupancy, processRead, and the DataS reply
// delivered to the requester, on a two-node rig under the base SC protocol.
// Between iterations the entry is put back to Idle by hand, so every
// iteration takes the same path; a warm rig allocates nothing.
func BenchmarkDirHandle(b *testing.B) {
	r := newRig(b, rigOpts{nodes: 2, cfg: scCfg()})
	a := mem.Addr(2 * mem.BlockSize) // interleaved by block index: homed at node 0
	dc := r.dcs[r.layout.Home(a)]
	replies := 0
	r.net.SetHandler(1, func(m *netsim.Message) {
		if m.Kind == netsim.DataS {
			replies++
		}
	})
	e := dc.entry(dc.block(a))
	req := netsim.Message{Kind: netsim.GetS, Src: 1, Dst: dc.node, Addr: a}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Txn = uint64(i + 1)
		dc.Handle(&req)
		r.q.Run()
		e.State, e.Sharers = directory.Idle, 0
	}
	b.StopTimer()
	if replies != b.N {
		b.Fatalf("%d DataS replies for %d GetS", replies, b.N)
	}
}
