package obs_test

import (
	"strings"
	"testing"

	"dsisim/internal/cache"
	"dsisim/internal/core"
	"dsisim/internal/cpu"
	"dsisim/internal/event"
	"dsisim/internal/machine"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/obs"
	"dsisim/internal/proto"
)

// prog is an inline test program.
type prog struct {
	name   string
	setup  func(m *machine.Machine)
	kernel func(p *cpu.Proc)
}

func (p *prog) Name() string { return p.name }
func (p *prog) Setup(m *machine.Machine) {
	if p.setup != nil {
		p.setup(m)
	}
}
func (p *prog) Kernel(pr *cpu.Proc) { p.kernel(pr) }
func (p *prog) WarmupBarriers() int { return 0 }

// microConfig is a 2-processor versions-DSI machine with a sink attached.
func microConfig(s *obs.Sink) machine.Config {
	return machine.Config{
		Processors:  2,
		CacheBytes:  64 * mem.BlockSize,
		CacheAssoc:  4,
		Consistency: proto.SC,
		Policy:      core.Policy{Identifier: core.Versions{}, UpgradeExemption: true},
		Sink:        s,
	}
}

// pingPong is a tiny producer-consumer workload: proc 0 writes two blocks,
// both barrier, proc 1 reads them back, both barrier again.
func pingPong() machine.Program {
	var r mem.Region
	return &prog{
		name: "pingpong",
		setup: func(m *machine.Machine) {
			r = m.Layout().AllocBlocked("data", 2*mem.BlockSize)
		},
		kernel: func(p *cpu.Proc) {
			if p.ID() == 0 {
				p.WriteWord(r.Addr(0), 7)
				p.WriteWord(r.Addr(mem.BlockSize), 9)
			}
			p.Barrier()
			if p.ID() == 1 {
				p.Assert(p.Read(r.Addr(0)).Word == 7, "bad word")
				p.Read(r.Addr(mem.BlockSize))
			}
			p.Barrier()
		},
	}
}

func TestNilSinkIsSafe(t *testing.T) {
	var s *obs.Sink
	s.Reset()
	s.MsgSent(1, netsim.Message{}, 2)
	s.MsgDelivered(2, netsim.Message{})
	s.OnCacheState(1, 0, 0, 0, cache.Invalid, cache.Shared, 0)
	s.OnDirState(1, 0, 0, 0, 0, 0)
	s.OnSelfInval(1, 0, 0, cache.Shared, false, false)
	s.OnTearOffGrant(1, 0, 0, 0, 1)
	s.OnTxnStart(1, 0, 0, 1, 1, netsim.GetS)
	s.OnTxnEnd(1, 0, 0, 1, 1)
	s.ForEach(func(*obs.Event) { t.Fatal("nil sink has events") })
	if s.Len() != 0 || s.Total() != 0 || s.Dropped() != 0 || s.Nodes() != 0 {
		t.Fatal("nil sink reports non-zero sizes")
	}
	if s.Events() != nil {
		t.Fatal("nil sink returns events")
	}
	if s.Metrics() != nil {
		t.Fatal("nil sink returns metrics")
	}
	if n, err := s.WriteText(&strings.Builder{}, obs.NewFilter(), 0); n != 0 || err != nil {
		t.Fatalf("nil sink WriteText = %d, %v", n, err)
	}
}

func TestMicroRunRecordsCoherentStream(t *testing.T) {
	s := obs.NewSink(obs.Config{})
	res := machine.New(microConfig(s)).Run(pingPong())
	if res.Failed() {
		t.Fatalf("run failed: %s", res.Errors[0])
	}
	if s.Len() == 0 {
		t.Fatal("no events recorded")
	}
	if s.Nodes() != 2 {
		t.Fatalf("nodes = %d, want 2", s.Nodes())
	}
	if res.Blocks == nil {
		t.Fatal("Result.Blocks not populated")
	}

	// Every send must have a matching delivery, in order, per (src, dst).
	type pair struct{ src, dst int32 }
	pending := map[pair][]netsim.Kind{}
	counts := map[obs.Kind]int{}
	txnStarts, txnEnds := 0, 0
	s.ForEach(func(e *obs.Event) {
		counts[e.Kind]++
		switch e.Kind {
		case obs.MsgSend:
			p := pair{e.Node, e.Peer}
			pending[p] = append(pending[p], e.Msg)
		case obs.MsgRecv:
			p := pair{e.Peer, e.Node}
			q := pending[p]
			if len(q) == 0 {
				t.Fatalf("delivery without send: %s", e)
			}
			if q[0] != e.Msg {
				t.Fatalf("out-of-order delivery: got %s, want %s", e.Msg, q[0])
			}
			pending[p] = q[1:]
		case obs.TxnStart:
			txnStarts++
		case obs.TxnEnd:
			txnEnds++
		}
	})
	for p, q := range pending {
		if len(q) != 0 {
			t.Fatalf("%d sends %d->%d never delivered", len(q), p.src, p.dst)
		}
	}
	if txnStarts != txnEnds {
		t.Fatalf("txn starts %d != ends %d", txnStarts, txnEnds)
	}
	m := s.Metrics()
	if m.Transactions != int64(txnStarts) {
		t.Fatalf("metrics transactions %d != stream %d", m.Transactions, txnStarts)
	}
	if counts[obs.MsgSend] == 0 || counts[obs.CacheState] == 0 {
		t.Fatalf("missing event kinds: %v", counts)
	}

	// The requester's miss and its grant share a transaction id.
	var missTxn uint64
	s.ForEach(func(e *obs.Event) {
		if missTxn == 0 && e.Kind == obs.MsgSend && e.Msg == netsim.GetX {
			missTxn = e.Txn
		}
	})
	if missTxn == 0 {
		t.Fatal("GetX without transaction id")
	}
	granted := false
	s.ForEach(func(e *obs.Event) {
		if e.Txn == missTxn && e.Kind == obs.MsgSend && (e.Msg == netsim.DataX || e.Msg == netsim.AckX) {
			granted = true
		}
	})
	if !granted {
		t.Fatalf("no grant tagged with txn %d", missTxn)
	}
}

func TestDeterminismWithAndWithoutSink(t *testing.T) {
	bare := machine.New(microConfig(nil)).Run(pingPong())
	s := obs.NewSink(obs.Config{})
	obsd := machine.New(microConfig(s)).Run(pingPong())
	if bare.Failed() || obsd.Failed() {
		t.Fatal("run failed")
	}
	if bare.TotalTime != obsd.TotalTime {
		t.Fatalf("sink changed timing: %d != %d", bare.TotalTime, obsd.TotalTime)
	}
	if bare.Messages != obsd.Messages {
		t.Fatalf("sink changed traffic: %+v != %+v", bare.Messages, obsd.Messages)
	}
}

func TestMaxEventsCap(t *testing.T) {
	s := obs.NewSink(obs.Config{MaxEvents: 10})
	res := machine.New(microConfig(s)).Run(pingPong())
	if res.Failed() {
		t.Fatalf("run failed: %s", res.Errors[0])
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	if s.Dropped() == 0 {
		t.Fatal("nothing dropped despite cap")
	}
	if s.Total() != uint64(s.Len())+s.Dropped() {
		t.Fatalf("total %d != len %d + dropped %d", s.Total(), s.Len(), s.Dropped())
	}
	// Metrics stream past the cap: they must match an uncapped run.
	u := obs.NewSink(obs.Config{})
	machine.New(microConfig(u)).Run(pingPong())
	if s.Metrics().Transactions != u.Metrics().Transactions {
		t.Fatalf("capped metrics diverge: %d != %d",
			s.Metrics().Transactions, u.Metrics().Transactions)
	}
}

func TestResetReusesChunks(t *testing.T) {
	s := obs.NewSink(obs.Config{})
	machine.New(microConfig(s)).Run(pingPong())
	n := s.Len()
	if n == 0 {
		t.Fatal("no events")
	}
	s.Reset()
	if s.Len() != 0 || s.Total() != 0 {
		t.Fatal("reset did not empty the sink")
	}
	machine.New(microConfig(s)).Run(pingPong())
	if s.Len() != n {
		t.Fatalf("second run recorded %d events, want %d", s.Len(), n)
	}
}

func TestFilterAndWriteText(t *testing.T) {
	s := obs.NewSink(obs.Config{})
	machine.New(microConfig(s)).Run(pingPong())

	all, err := s.WriteText(&strings.Builder{}, obs.NewFilter(), 0)
	if err != nil || all != s.Len() {
		t.Fatalf("unfiltered matched %d of %d (%v)", all, s.Len(), err)
	}

	f := obs.NewFilter().WithKind(obs.MsgSend)
	var b strings.Builder
	sends, err := s.WriteText(&b, f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sends == 0 || sends >= all {
		t.Fatalf("kind filter matched %d of %d", sends, all)
	}
	if got := strings.Count(b.String(), "\n"); got != 6 { // 5 events + "more" line
		t.Fatalf("limit printed %d lines:\n%s", got, b.String())
	}
	if !strings.Contains(b.String(), "more events matched") {
		t.Fatal("missing truncation notice")
	}

	node0 := obs.Filter{Node: 0}
	m0, _ := s.WriteText(&strings.Builder{}, node0, 0)
	if m0 == 0 || m0 >= all {
		t.Fatalf("node filter matched %d of %d", m0, all)
	}
}

// TestPrematureAndEchoLossCounters drives the metric edges with a synthetic
// stream: an install that carried a version, a self-invalidation, then a
// re-miss inside the window whose request lost the version echo.
func TestPrematureAndEchoLossCounters(t *testing.T) {
	s := obs.NewSink(obs.Config{PrematureWindow: 400})
	b := mem.Addr(0x1000)
	miss := netsim.Message{Kind: netsim.GetS, Src: 1, Dst: 0, Addr: b}

	s.OnCacheState(100, 1, b, 1, cache.Invalid, cache.Shared, obs.FlagHasVer)
	s.OnSelfInval(200, 1, b, cache.Shared, false, false)
	s.MsgSent(300, miss, 400) // within window, no version echo

	m := s.Metrics()
	if m.SelfInvals != 1 {
		t.Fatalf("SelfInvals = %d", m.SelfInvals)
	}
	if m.PrematureSelfInvals != 1 {
		t.Fatalf("PrematureSelfInvals = %d, want 1", m.PrematureSelfInvals)
	}
	if m.EchoLosses != 1 {
		t.Fatalf("EchoLosses = %d, want 1", m.EchoLosses)
	}

	// A second miss must not double-count the same self-invalidation.
	s.MsgSent(350, miss, 450)
	if m = s.Metrics(); m.PrematureSelfInvals != 1 {
		t.Fatalf("PrematureSelfInvals double-counted: %d", m.PrematureSelfInvals)
	}

	// Outside the window: not premature. With a version echo: no loss.
	s.OnCacheState(500, 1, b, 2, cache.Invalid, cache.Shared, obs.FlagHasVer)
	s.OnSelfInval(600, 1, b, cache.Shared, false, false)
	echoed := miss
	echoed.HasVer = true
	s.MsgSent(1200, echoed, 1300)
	if m = s.Metrics(); m.PrematureSelfInvals != 1 || m.EchoLosses != 1 {
		t.Fatalf("late echoed miss miscounted: premature=%d echo=%d",
			m.PrematureSelfInvals, m.EchoLosses)
	}
}

// TestFIFODisplacementCounting checks the FIFO-displacement path: a machine
// with a tiny self-invalidation FIFO must displace early and the sink must
// classify those as FIFODisplace, not SelfInval.
func TestFIFODisplacementCounting(t *testing.T) {
	s := obs.NewSink(obs.Config{})
	cfg := microConfig(s)
	cfg.Policy = core.Policy{
		Identifier:   core.Versions{},
		NewMechanism: func() core.Mechanism { return core.NewFIFO(2) },
	}
	var r mem.Region
	res := machine.New(cfg).Run(&prog{
		name: "fifofill",
		setup: func(m *machine.Machine) {
			r = m.Layout().AllocBlocked("data", 16*mem.BlockSize)
		},
		kernel: func(p *cpu.Proc) {
			// Several write/read rounds: the version identifier needs an
			// invalidation round-trip before it marks reads self-invalidating,
			// and only marked blocks enter (and overflow) the FIFO.
			for round := 0; round < 4; round++ {
				if p.ID() == 0 {
					for i := uint64(0); i < 16; i++ {
						p.WriteWord(r.Addr(i*mem.BlockSize), i)
					}
				}
				p.Barrier()
				if p.ID() == 1 {
					for i := uint64(0); i < 16; i++ {
						p.Read(r.Addr(i * mem.BlockSize))
					}
				}
				p.Barrier()
			}
		},
	})
	if res.Failed() {
		t.Fatalf("run failed: %s", res.Errors[0])
	}
	m := s.Metrics()
	if m.FIFODisplacements == 0 {
		t.Fatal("tiny FIFO displaced nothing")
	}
	if m.FIFODisplacements != res.FIFODisplacements {
		t.Fatalf("sink counted %d displacements, machine %d",
			m.FIFODisplacements, res.FIFODisplacements)
	}
}

// TestEchoLossOnFrameRecycle reproduces the echo-loss mechanism with a real
// machine: a one-set cache forces frame recycling, which destroys the tag
// (and version) history a version echo needs.
func TestEchoLossOnFrameRecycle(t *testing.T) {
	s := obs.NewSink(obs.Config{})
	cfg := microConfig(s)
	cfg.CacheBytes = 2 * mem.BlockSize
	cfg.CacheAssoc = 2 // one set: reading 3+ blocks recycles frames
	var r mem.Region
	res := machine.New(cfg).Run(&prog{
		name: "recycle",
		setup: func(m *machine.Machine) {
			r = m.Layout().AllocBlocked("data", 8*mem.BlockSize)
		},
		kernel: func(p *cpu.Proc) {
			if p.ID() == 0 {
				for i := uint64(0); i < 8; i++ {
					p.WriteWord(r.Addr(i*mem.BlockSize), i)
				}
			}
			p.Barrier()
			if p.ID() == 1 {
				// Two passes: the first installs versions, the second misses
				// on recycled frames whose versions are gone.
				for pass := 0; pass < 2; pass++ {
					for i := uint64(0); i < 8; i++ {
						p.Read(r.Addr(i * mem.BlockSize))
					}
				}
			}
			p.Barrier()
		},
	})
	if res.Failed() {
		t.Fatalf("run failed: %s", res.Errors[0])
	}
	if s.Metrics().EchoLosses == 0 {
		t.Fatal("frame recycling produced no echo losses")
	}
}

func TestEventStringAndKindNames(t *testing.T) {
	e := obs.Event{Cycle: 42, Kind: obs.MsgSend, Node: 1, Peer: 0,
		Msg: netsim.GetS, Addr: 0x40, Txn: 7, Flags: obs.FlagHasVer}
	str := e.String()
	for _, want := range []string{"42", "node1", "GetS", "blk=0x40", "txn=7", "ver"} {
		if !strings.Contains(str, want) {
			t.Fatalf("event string %q missing %q", str, want)
		}
	}
	for k := obs.Kind(0); k < obs.NumKinds; k++ {
		if strings.Contains(k.String(), "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	var _ event.Time = obs.DefaultPrematureWindow // schema stability: type check
}

func TestParseKind(t *testing.T) {
	for k := obs.Kind(0); k < obs.NumKinds; k++ {
		got, ok := obs.ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := obs.ParseKind("not-a-kind"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
}
