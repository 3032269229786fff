package proto

import (
	"fmt"
	"testing"

	"dsisim/internal/cache"
	"dsisim/internal/core"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
)

// rig is a minimal machine for protocol unit tests: N nodes, each with a
// cache controller and a directory controller, wired to a network, with no
// processor model on top.
type rig struct {
	t      testing.TB
	q      *event.Queue
	net    *netsim.Network
	layout *mem.Layout
	env    *Env
	ccs    []*CacheCtrl
	dcs    []*DirCtrl
	fails  []string
}

type rigOpts struct {
	nodes      int
	latency    event.Time
	cacheBytes int
	assoc      int
	cfg        Config
	// tolerate suppresses t.Fatal on protocol check failures (for tests
	// that examine failure reporting itself).
	tolerate bool
}

func newRig(t testing.TB, o rigOpts) *rig {
	t.Helper()
	if o.nodes == 0 {
		o.nodes = 4
	}
	if o.latency == 0 {
		o.latency = 100
	}
	if o.cacheBytes == 0 {
		o.cacheBytes = 32 * mem.BlockSize * 4
	}
	if o.assoc == 0 {
		o.assoc = 4
	}
	r := &rig{t: t, q: &event.Queue{}, layout: mem.NewLayout(o.nodes)}
	r.net = netsim.New(r.q, netsim.Config{Nodes: o.nodes, Latency: o.latency})
	r.env = &Env{Q: r.q, Net: r.net, Layout: r.layout}
	r.env.CheckFail = func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		r.fails = append(r.fails, msg)
		if !o.tolerate {
			t.Fatalf("protocol check failed at t=%d: %s", r.q.Now(), msg)
		}
	}
	geo := cache.Config{SizeBytes: o.cacheBytes, Assoc: o.assoc}
	for i := 0; i < o.nodes; i++ {
		cc := NewCacheCtrl(r.env, i, o.cfg, geo)
		dc := NewDirCtrl(r.env, i, o.cfg)
		r.ccs = append(r.ccs, cc)
		r.dcs = append(r.dcs, dc)
	}
	for i := 0; i < o.nodes; i++ {
		cc, dc := r.ccs[i], r.dcs[i]
		r.net.SetHandler(i, func(m *netsim.Message) {
			switch m.Kind {
			case netsim.Inv, netsim.Recall, netsim.DataS, netsim.DataX,
				netsim.AckX, netsim.FinalAck:
				cc.Handle(m)
			default:
				dc.Handle(m)
			}
		})
	}
	return r
}

// run drains the event queue with a watchdog.
func (r *rig) run() {
	r.t.Helper()
	const cap = 5_000_000
	if r.q.RunSteps(cap) == cap {
		r.t.Fatal("simulation did not quiesce (livelock?)")
	}
}

// at schedules fn at time t.
func (r *rig) at(t event.Time, fn func()) { r.q.At(t, fn) }

// read issues a load from node at time t and returns a pointer that holds
// the result after run().
func (r *rig) read(t event.Time, node int, a mem.Addr) *Result {
	res := &Result{Done: -1}
	r.at(t, func() { r.ccs[node].Read(a, func(x *Result) { *res = *x }) })
	return res
}

func (r *rig) write(t event.Time, node int, a mem.Addr, seq uint64) *Result {
	res := &Result{Done: -1}
	st := Store{Writer: node, Seq: seq}
	r.at(t, func() { r.ccs[node].Write(a, st, func(x *Result) { *res = *x }) })
	return res
}

func (r *rig) swap(t event.Time, node int, a mem.Addr, word uint64, seq uint64) *Result {
	res := &Result{Done: -1}
	st := Store{Writer: node, Seq: seq}
	r.at(t, func() { r.ccs[node].Swap(a, word, st, func(x *Result) { *res = *x }) })
	return res
}

func (r *rig) flush(t event.Time, node int) *Result {
	res := &Result{Done: -1}
	r.at(t, func() { r.ccs[node].SyncFlush(func(x *Result) { *res = *x }) })
	return res
}

// countsAt returns a pointer that, after run(), holds the network counters
// as they stood at simulated time t.
func (r *rig) countsAt(t event.Time) *netsim.Counts {
	snap := &netsim.Counts{}
	r.at(t, func() { *snap = r.net.Counts() })
	return snap
}

// home returns the directory controller that homes address a.
func (r *rig) home(a mem.Addr) *DirCtrl { return r.dcs[r.layout.Home(a)] }

// mustDone asserts the operation completed.
func mustDone(t *testing.T, name string, res *Result) {
	t.Helper()
	if res.Done < 0 {
		t.Fatalf("%s never completed", name)
	}
}

// scCfg is the base sequentially consistent configuration.
func scCfg() Config { return Config{Consistency: SC} }

// wcCfg is the base weakly consistent configuration.
func wcCfg() Config { return Config{Consistency: WC, WriteBufferEntries: 16} }

// dsiCfg returns an SC configuration with DSI enabled.
func dsiCfg(id core.Identifier) Config {
	return Config{Consistency: SC, Policy: core.Policy{Identifier: id, UpgradeExemption: true}}
}
