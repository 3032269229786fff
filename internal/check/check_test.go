package check

import (
	"strings"
	"testing"

	"dsisim/internal/cache"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/proto"
	"dsisim/internal/rng"
)

// build wires a quiesced 3-node system whose state the tests then corrupt.
func build(t *testing.T) ([]*proto.CacheCtrl, []*proto.DirCtrl) {
	t.Helper()
	q := &event.Queue{}
	layout := mem.NewLayout(3)
	net := netsim.New(q, netsim.Config{Nodes: 3, Latency: 10})
	env := &proto.Env{Q: q, Net: net, Layout: layout, CheckFail: func(string, ...any) {}}
	var ccs []*proto.CacheCtrl
	var dcs []*proto.DirCtrl
	for i := 0; i < 3; i++ {
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
	// Legitimate traffic: node 0 reads a block homed at node 1, node 2
	// writes another.
	q.At(0, func() { ccs[0].Read(mem.Addr(1*mem.BlockSize), func(*proto.Result) {}) })
	q.At(0, func() {
		ccs[2].Write(mem.Addr(2*mem.BlockSize), proto.Store{Writer: 2, Seq: 1}, func(*proto.Result) {})
	})
	q.Run()
	return ccs, dcs
}

func TestAuditCleanSystem(t *testing.T) {
	ccs, dcs := build(t)
	if errs := Audit(ccs, dcs, 0, nil); len(errs) != 0 {
		t.Fatalf("clean system failed audit: %v", errs)
	}
}

func TestAuditRejectsInFlight(t *testing.T) {
	ccs, dcs := build(t)
	if errs := Audit(ccs, dcs, 3, nil); len(errs) == 0 {
		t.Fatal("audit accepted a non-quiesced system")
	}
}

func expectViolation(t *testing.T, ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl, substr string) {
	t.Helper()
	errs := Audit(ccs, dcs, 0, nil)
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return
		}
	}
	t.Fatalf("audit missed violation %q; got %v", substr, errs)
}

func TestAuditDetectsPhantomSharer(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(1 * mem.BlockSize)
	e, _ := dcs[1].Peek(a)
	e.Sharers = e.Sharers.Add(2) // node 2 holds nothing
	expectViolation(t, ccs, dcs, "tracked copies")
}

func TestAuditDetectsUntrackedCopy(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(1 * mem.BlockSize)
	// Node 2 conjures a copy the directory does not know about.
	ccs[2].Cache().Install(a, &cache.Fill{State: cache.Shared})
	expectViolation(t, ccs, dcs, "tracked copies")
}

func TestAuditDetectsDoubleWriter(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(2 * mem.BlockSize)
	ccs[0].Cache().Install(a, &cache.Fill{State: cache.Exclusive})
	expectViolation(t, ccs, dcs, "multiple writers")
}

func TestAuditDetectsStaleSharedValue(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(1 * mem.BlockSize)
	f, ok := ccs[0].Cache().Peek(a)
	if !ok {
		t.Fatal("setup: node 0 lost its copy")
	}
	f.Data.Seq = 999
	expectViolation(t, ccs, dcs, "differs from memory")
}

func TestAuditDetectsWritableTearOff(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(2 * mem.BlockSize)
	// The legitimate owner's copy becomes (illegally) tear-off.
	f, ok := ccs[2].Cache().Peek(a)
	if !ok {
		t.Fatal("setup: owner lost its copy")
	}
	f.TearOff = true
	expectViolation(t, ccs, dcs, "writable tear-off")
}

func TestAuditDetectsIdleWithCopies(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(2 * mem.BlockSize)
	e, _ := dcs[2].Peek(a)
	e.State = directory.Idle
	expectViolation(t, ccs, dcs, "tracked copies")
}

func TestAuditDetectsWrongOwner(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(2 * mem.BlockSize)
	e, _ := dcs[2].Peek(a)
	e.Owner = 1
	expectViolation(t, ccs, dcs, "owner")
}

func TestAuditIgnoresTearOffStaleness(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(1 * mem.BlockSize)
	// A stale untracked tear-off copy at node 2 is legal.
	ccs[2].Cache().Install(a, &cache.Fill{State: cache.Shared, SI: true, TearOff: true,
		Data: mem.Value{Writer: 9, Seq: 9}})
	if errs := Audit(ccs, dcs, 0, nil); len(errs) != 0 {
		t.Fatalf("legal tear-off staleness flagged: %v", errs)
	}
}

// buildSeeded wires a quiesced 4-node system after a seeded run of reads
// and writes over 8 blocks, one at a time, so entries end up idle, shared by
// several nodes, and exclusive.
func buildSeeded(seed uint64) ([]*proto.CacheCtrl, []*proto.DirCtrl) {
	const nodes = 4
	q := &event.Queue{}
	net := netsim.New(q, netsim.Config{Nodes: nodes, Latency: 10})
	env := &proto.Env{Q: q, Net: net, Layout: mem.NewLayout(nodes), CheckFail: func(string, ...any) {}}
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
	r := rng.New(seed)
	for i := 0; i < 40; i++ {
		n, a := r.Intn(nodes), mem.Addr((1+r.Intn(8))*mem.BlockSize)
		if r.Bool(0.3) {
			st := proto.Store{Writer: n, Seq: uint64(i + 1)}
			q.At(event.Time(i*1000), func() { ccs[n].Write(a, st, func(*proto.Result) {}) })
		} else {
			q.At(event.Time(i*1000), func() { ccs[n].Read(a, func(*proto.Result) {}) })
		}
	}
	q.Run()
	return ccs, dcs
}

// entriesIn returns the blocks whose directory entry is in a state that
// match accepts, in directory order, with their entries.
func entriesIn(dcs []*proto.DirCtrl, match func(*directory.Entry) bool) ([]mem.Addr, []*directory.Entry) {
	var bs []mem.Addr
	var es []*directory.Entry
	// One table holds every home's entries.
	dcs[0].ForEachEntry(func(b mem.Addr, e *directory.Entry, _ *mem.Value) {
		if match(e) {
			bs = append(bs, b)
			es = append(es, e)
		}
	})
	return bs, es
}

// The audit's two ways of collecting holder sets — a probe of every cache
// per entry, and one scan of every cache's ways — report the same
// violations, in the same order, with the same text, on seeded corruptions.
func TestAuditPathsAgree(t *testing.T) {
	exclusive := func(e *directory.Entry) bool { return e.State == directory.Exclusive }
	shared := func(e *directory.Entry) bool { return e.State.IsShared() && !e.Sharers.Empty() }
	type corrupt func(r *rng.RNG, ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl) bool
	corruptions := []struct {
		name  string
		apply corrupt
	}{
		{"two writers", func(r *rng.RNG, ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl) bool {
			bs, es := entriesIn(dcs, exclusive)
			if len(bs) == 0 {
				return false
			}
			i := r.Intn(len(bs))
			n := (es[i].Owner + 1 + r.Intn(len(ccs)-1)) % len(ccs)
			ccs[n].Cache().Install(bs[i], &cache.Fill{State: cache.Exclusive})
			return true
		}},
		{"writable tear-off", func(r *rng.RNG, ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl) bool {
			bs, es := entriesIn(dcs, exclusive)
			if len(bs) == 0 {
				return false
			}
			i := r.Intn(len(bs))
			f, ok := ccs[es[i].Owner].Cache().Peek(bs[i])
			if !ok {
				return false
			}
			f.TearOff = true
			return true
		}},
		{"stray tracked copy", func(r *rng.RNG, ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl) bool {
			bs, _ := entriesIn(dcs, func(*directory.Entry) bool { return true })
			b := bs[r.Intn(len(bs))]
			for _, k := range r.Perm(len(ccs)) {
				if _, held := ccs[k].Cache().Peek(b); !held {
					ccs[k].Cache().Install(b, &cache.Fill{State: cache.Shared})
					return true
				}
			}
			return false
		}},
		{"lost sharer bit", func(r *rng.RNG, ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl) bool {
			_, es := entriesIn(dcs, shared)
			if len(es) == 0 {
				return false
			}
			e := es[r.Intn(len(es))]
			var sharers []int
			e.Sharers.ForEach(func(n int) { sharers = append(sharers, n) })
			e.Sharers = e.Sharers.Remove(sharers[r.Intn(len(sharers))])
			return true
		}},
		{"stale shared data", func(r *rng.RNG, ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl) bool {
			bs, es := entriesIn(dcs, shared)
			if len(bs) == 0 {
				return false
			}
			i := r.Intn(len(bs))
			var sharers []int
			es[i].Sharers.ForEach(func(n int) { sharers = append(sharers, n) })
			f, ok := ccs[sharers[r.Intn(len(sharers))]].Cache().Peek(bs[i])
			if !ok {
				return false
			}
			f.Data.Seq += 999
			return true
		}},
	}
	applied := make([]int, len(corruptions))
	var s Scratch // one scratch across every audit, as a machine keeps it
	for seed := uint64(1); seed <= 8; seed++ {
		// Each corruption alone, then all of them in one system.
		for round := 0; round <= len(corruptions); round++ {
			ccs, dcs := buildSeeded(seed)
			if errs := audit(ccs, dcs, 0, &s); len(errs) != 0 {
				t.Fatalf("seed %d: clean system failed the scanning audit: %v", seed, errs)
			}
			r := rng.New(seed*31 + uint64(round))
			corrupted := false
			for i, c := range corruptions {
				if (round == len(corruptions) || round == i) && c.apply(r, ccs, dcs) {
					applied[i]++
					corrupted = true
				}
			}
			if !corrupted {
				continue
			}
			probed, scanned := audit(ccs, dcs, 0, nil), audit(ccs, dcs, 0, &s)
			if len(probed) == 0 {
				t.Errorf("seed %d round %d: corruption went undetected", seed, round)
			}
			if len(probed) != len(scanned) {
				t.Errorf("seed %d round %d: probing found %v, scanning %v", seed, round, probed, scanned)
				continue
			}
			for i := range probed {
				if probed[i].Error() != scanned[i].Error() {
					t.Errorf("seed %d round %d: violation %d is %q by probing, %q by scanning",
						seed, round, i, probed[i], scanned[i])
				}
			}
		}
	}
	for i, c := range corruptions {
		if applied[i] == 0 {
			t.Errorf("corruption %q never applied: the seeded systems offer it no target", c.name)
		}
	}
}

func TestCrossCheckOutcomes(t *testing.T) {
	if err := CrossCheckOutcomes("block", []uint64{1, 2, 3}, []uint64{1, 2, 3}); err != nil {
		t.Fatalf("matching outcomes flagged: %v", err)
	}
	err := CrossCheckOutcomes("block", []uint64{1, 9, 3}, []uint64{1, 2, 3})
	if err == nil {
		t.Fatal("mismatch not flagged")
	}
	if !strings.Contains(err.Error(), "block 1") {
		t.Fatalf("mismatch error does not name the slot: %v", err)
	}
	if err := CrossCheckOutcomes("block", []uint64{1}, []uint64{1, 2}); err == nil {
		t.Fatal("length mismatch not flagged")
	}
}

// TestAuditOrdersFindingsByHome corrupts entries at three homes whose
// first touches interleave across the homes (blocks 2, 5, 1, 3 in that
// order, homed at 2, 1, 1 and 3) and requires the findings home by home in
// node order, each home's in first-touch order, with either collection: the
// order the audit gave while every home kept a directory of its own.
func TestAuditOrdersFindingsByHome(t *testing.T) {
	want := []string{
		"block 0xa0 (home 1): directory says owner 3, caches say {}",
		"block 0x20 (home 1): directory says owner 3, caches say {}",
		"block 0x40 (home 2): directory says owner 3, caches say {}",
		"block 0x60 (home 3): directory says owner 3, caches say {}",
	}
	for _, s := range []*Scratch{nil, {}} {
		ccs, dcs := buildSeeded(3)
		for _, b := range []mem.Addr{1 * mem.BlockSize, 2 * mem.BlockSize, 3 * mem.BlockSize, 5 * mem.BlockSize} {
			e, ok := dcs[0].Peek(b)
			if !ok {
				t.Fatalf("block %#x has no entry", uint64(b))
			}
			e.State, e.Owner, e.Sharers = directory.Exclusive, 3, 0
		}
		var got []string
		for _, err := range audit(ccs, dcs, 0, s) {
			got = append(got, err.Error())
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("scratch %v: findings\n%s\nwant\n%s", s != nil, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
