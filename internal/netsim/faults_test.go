package netsim

import (
	"testing"

	"dsisim/internal/event"
	"dsisim/internal/faultinj"
	"dsisim/internal/mem"
)

// newFaultyNet builds a 3-node network with the given fault plan and records
// deliveries per destination in arrival order.
func newFaultyNet(t *testing.T, plan *faultinj.Plan, lat event.Time) (*event.Queue, *Network, *[]Message) {
	t.Helper()
	q := &event.Queue{}
	n := New(q, Config{Nodes: 3, Latency: lat, Faults: plan})
	var got []Message
	for i := 0; i < 3; i++ {
		n.SetHandler(i, func(m *Message) { got = append(got, *m) })
	}
	return q, n, &got
}

func TestFaultDropLosesMessage(t *testing.T) {
	plan := faultinj.New(faultinj.Config{Rules: []faultinj.Rule{
		{Kind: int(GetS), Src: -1, Dst: -1, Nth: 1, Action: faultinj.Drop},
	}})
	q, n, got := newFaultyNet(t, plan, 100)
	q.At(0, func() {
		n.Send(&Message{Kind: GetS, Src: 0, Dst: 1, Addr: 32})
		n.Send(&Message{Kind: GetS, Src: 0, Dst: 1, Addr: 64})
	})
	q.Run()
	if len(*got) != 1 || (*got)[0].Addr != 64 {
		t.Fatalf("deliveries = %v, want only blk 64", *got)
	}
	if n.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", n.InFlight())
	}
	if st := plan.Stats(); st.Dropped != 1 {
		t.Fatalf("plan stats: %+v", st)
	}
	// The dropped message still consumed injection bandwidth.
	if n.Counts().ByKind[GetS] != 2 {
		t.Fatalf("GetS count = %d, want 2", n.Counts().ByKind[GetS])
	}
}

func TestFaultDuplicateDeliversTwice(t *testing.T) {
	plan := faultinj.New(faultinj.Config{Rules: []faultinj.Rule{
		{Kind: int(Inv), Src: -1, Dst: -1, Nth: 1, Action: faultinj.Duplicate, Delay: 7},
	}})
	q, n, got := newFaultyNet(t, plan, 100)
	q.At(0, func() {
		n.Send(&Message{Kind: Inv, Src: 0, Dst: 2, Addr: 32})
	})
	q.Run()
	if len(*got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(*got))
	}
	if (*got)[0].Addr != 32 || (*got)[1].Addr != 32 {
		t.Fatalf("deliveries = %v", *got)
	}
	if n.Counts().ByKind[Inv] != 2 {
		t.Fatalf("Inv count = %d, want 2 (copy is real traffic)", n.Counts().ByKind[Inv])
	}
}

func TestFaultDelayPostponesDelivery(t *testing.T) {
	plan := faultinj.New(faultinj.Config{Rules: []faultinj.Rule{
		{Kind: int(GetS), Src: -1, Dst: -1, Nth: 1, Action: faultinj.Delay, Delay: 40},
	}})
	q, n, _ := newFaultyNet(t, plan, 100)
	var at event.Time
	q.At(0, func() {
		at = n.Send(&Message{Kind: GetS, Src: 0, Dst: 1, Addr: 32})
	})
	q.Run()
	if at != 143 { // 3 inject + 100 latency + 40 fault delay
		t.Fatalf("arrival = %d, want 143", at)
	}
}

func TestFaultsPreservePairFIFO(t *testing.T) {
	// Delay the first message by a lot; the second must not overtake it.
	plan := faultinj.New(faultinj.Config{Rules: []faultinj.Rule{
		{Kind: -1, Src: 0, Dst: 1, Nth: 1, Action: faultinj.Delay, Delay: 500},
	}})
	q, n, got := newFaultyNet(t, plan, 100)
	q.At(0, func() {
		n.Send(&Message{Kind: Inv, Src: 0, Dst: 1, Addr: 32})
		n.Send(&Message{Kind: DataS, Src: 0, Dst: 1, Addr: 64})
	})
	q.Run()
	if len(*got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(*got))
	}
	if (*got)[0].Addr != 32 || (*got)[1].Addr != 64 {
		t.Fatalf("FIFO violated: delivery order %v, %v", (*got)[0], (*got)[1])
	}
}

func TestFaultsOtherPairsUnaffectedByClamp(t *testing.T) {
	plan := faultinj.New(faultinj.Config{Rules: []faultinj.Rule{
		{Kind: -1, Src: 0, Dst: 1, Nth: 1, Action: faultinj.Delay, Delay: 500},
	}})
	q, n, got := newFaultyNet(t, plan, 100)
	q.At(0, func() {
		n.Send(&Message{Kind: Inv, Src: 0, Dst: 1, Addr: 32})  // delayed to ~603
		n.Send(&Message{Kind: Inv, Src: 0, Dst: 2, Addr: 64})  // different pair: normal
		n.Send(&Message{Kind: Inv, Src: 1, Dst: 2, Addr: 128}) // different pair: normal
	})
	q.Run()
	if len(*got) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(*got))
	}
	if (*got)[0].Addr == 32 {
		t.Fatalf("delayed message delivered first: %v", *got)
	}
}

func TestNonDroppableKindDelayedNotDropped(t *testing.T) {
	// Probability-1 drop on a writeback must convert to a delay.
	plan := faultinj.New(faultinj.Config{Seed: 9, Drop: 1, Jitter: 20})
	q, n, got := newFaultyNet(t, plan, 100)
	q.At(0, func() {
		n.Send(&Message{Kind: WB, Src: 0, Dst: 1, Addr: 32, Data: mem.Value{Writer: 3}})
	})
	q.Run()
	if len(*got) != 1 || (*got)[0].Data.Writer != 3 {
		t.Fatalf("writeback lost: %v", *got)
	}
	if st := plan.Stats(); st.Converted != 1 || st.Dropped != 0 {
		t.Fatalf("plan stats: %+v", st)
	}
}

func TestLocalMessagesExemptFromFaults(t *testing.T) {
	plan := faultinj.New(faultinj.Config{Seed: 1, Drop: 1})
	q, n, got := newFaultyNet(t, plan, 100)
	q.At(0, func() {
		n.Send(&Message{Kind: GetS, Src: 1, Dst: 1, Addr: 32})
	})
	q.Run()
	if len(*got) != 1 {
		t.Fatalf("local message not delivered: %v", *got)
	}
	if st := plan.Stats(); st.Decisions != 0 {
		t.Fatalf("local message consulted the plan: %+v", st)
	}
}

func TestDroppableClassification(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		droppable := k.Droppable()
		switch k {
		case InvAckData, RecallAck, WB, SInvWB, Repl, SInvNotify:
			if droppable {
				t.Errorf("%v droppable, but its loss is unrecoverable", k)
			}
		default:
			if !droppable {
				t.Errorf("%v not droppable, but retry covers it", k)
			}
		}
	}
}

func TestParseKind(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("NotAKind"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
}
