package protomodel

import (
	"testing"

	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/obs"
)

// synthModel builds a small hand-written model exercising both controllers:
// GetS is home-bound (handled in Idle/Shared, waived in Exclusive), Inv is
// cache-bound (handled in Shared/Exclusive, waived in Invalid), and each
// side has one timeout trigger.
func synthModel() *Model {
	return &Model{
		SchemaVersion: Schema,
		Package:       ProtoPackage,
		Kinds:         []string{"GetS", "Inv"},
		Controllers: []Controller{
			{
				Name:   "cache",
				States: []string{"Invalid", "Shared", "Exclusive"},
				Transitions: []Transition{
					{Trigger: "GetS", State: "Invalid", Kind: Waived, Reason: ReasonNotRouted},
					{Trigger: "GetS", State: "Shared", Kind: Waived, Reason: ReasonNotRouted},
					{Trigger: "GetS", State: "Exclusive", Kind: Waived, Reason: ReasonNotRouted},
					{Trigger: "Inv", State: "Invalid", Kind: Waived, Reason: ReasonInvariant},
					{Trigger: "Inv", State: "Shared", Kind: Handled, Next: []string{"Invalid"}},
					{Trigger: "Inv", State: "Exclusive", Kind: Handled, Next: []string{"Invalid"}},
					{Trigger: "timeout:miss", State: "Invalid", Kind: Handled},
					{Trigger: "timeout:final", State: "Shared", Kind: Handled},
					{Trigger: "op:read", State: "Invalid", Kind: Handled},
				},
			},
			{
				Name:   "dir",
				States: []string{"Idle", "Shared", "Exclusive"},
				Transitions: []Transition{
					{Trigger: "GetS", State: "Idle", Kind: Handled, Next: []string{"Shared"}},
					{Trigger: "GetS", State: "Shared", Kind: Handled},
					{Trigger: "GetS", State: "Exclusive", Kind: Waived, Reason: ReasonInvariant},
					{Trigger: "Inv", State: "Idle", Kind: Waived, Reason: ReasonNotRouted},
					{Trigger: "Inv", State: "Shared", Kind: Waived, Reason: ReasonNotRouted},
					{Trigger: "Inv", State: "Exclusive", Kind: Waived, Reason: ReasonNotRouted},
					{Trigger: "timeout:txn", State: "Exclusive", Kind: Handled},
				},
			},
		},
	}
}

const covBlock = mem.Addr(0x1000)

func deliver(s *obs.Sink, kind netsim.Kind, dst int) {
	s.MsgDelivered(1, netsim.Message{Kind: kind, Src: 0, Dst: dst, Addr: covBlock})
}

func TestCoverageCleanStream(t *testing.T) {
	cov, err := NewCoverage(synthModel())
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	deliver(sink, netsim.GetS, 3)                    // dir: GetS in Idle
	sink.OnDirState(2, 3, covBlock, 1, 0, 1)         // dir Idle -> Shared
	deliver(sink, netsim.GetS, 3)                    // dir: GetS in Shared
	sink.OnCacheState(3, 5, covBlock, 1, 0, 1, 0)    // cache Invalid -> Shared
	deliver(sink, netsim.Inv, 5)                     // cache: Inv in Shared
	sink.OnRetryTimeout(4, 5, covBlock, 1, 2, false) // cache timeout in... Shared has timeout:final
	cov.FoldSink(sink)

	if vs := cov.Violations(); len(vs) != 0 {
		t.Fatalf("clean stream produced violations: %v", vs)
	}
	sum := cov.Summarize()
	// Observable transitions: cache Inv x2, timeout:miss, timeout:final
	// (op:read excluded), dir GetS x2, timeout:txn = 7. Exercised: dir GetS
	// in Idle + Shared, cache Inv in Shared, cache timeout:final in Shared.
	if sum.Observable != 7 || sum.Exercised != 4 || sum.Violations != 0 {
		t.Fatalf("summary = %+v, want {7 4 0}", sum)
	}
	missing := cov.Missing()
	if len(missing) != 3 {
		t.Fatalf("missing = %v, want 3 entries", missing)
	}
	for _, m := range missing {
		if m.Trigger == "op:read" {
			t.Fatalf("op:* triggers are not runtime-attributable, but Missing lists %s", m)
		}
	}
}

func TestCoverageViolations(t *testing.T) {
	cov, err := NewCoverage(synthModel())
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	sink.OnCacheState(1, 5, covBlock, 1, 0, 2, 0) // cache -> Exclusive
	deliver(sink, netsim.Inv, 5)                  // handled
	sink.OnSelfInval(2, 5, covBlock, 2, false, false)
	deliver(sink, netsim.Inv, 5) // cache: Inv in Invalid — waived, a violation
	sink.OnDirState(3, 5, covBlock, 1, 0, 2)
	deliver(sink, netsim.GetS, 5) // dir: GetS in Exclusive — waived, a violation
	deliver(sink, netsim.GetX, 5) // dir: GetX not in the model at all — a violation
	cov.FoldSink(sink)

	vs := cov.Violations()
	if len(vs) != 3 {
		t.Fatalf("violations = %v, want 3", vs)
	}
	want := []Observed{
		{Controller: "cache", Trigger: "Inv", State: "Invalid"},
		{Controller: "dir", Trigger: "GetS", State: "Exclusive"},
		{Controller: "dir", Trigger: "GetX", State: "Exclusive"},
	}
	for i, w := range want {
		if vs[i].Observed != w || vs[i].Count != 1 {
			t.Errorf("violation %d = %+v, want %v x1", i, vs[i], w)
		}
	}
}

func TestCoverageShadowReset(t *testing.T) {
	cov, err := NewCoverage(synthModel())
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	// FIFO displacement resets the cache shadow to Invalid, so the next Inv
	// must be filed under Invalid (the waived pair), not Shared.
	sink.OnCacheState(1, 5, covBlock, 1, 0, 1, 0)
	sink.OnSelfInval(2, 5, covBlock, 1, false, true) // fifo displacement
	deliver(sink, netsim.Inv, 5)
	// Directory-side timeout attributes to timeout:txn with the dir shadow.
	sink.OnDirState(3, 5, covBlock, 1, 0, 2)
	sink.OnRetryTimeout(4, 5, covBlock, 1, 1, true)
	cov.FoldSink(sink)

	vs := cov.Violations()
	if len(vs) != 1 || vs[0].Observed != (Observed{Controller: "cache", Trigger: "Inv", State: "Invalid"}) {
		t.Fatalf("violations = %v, want exactly cache Inv in Invalid", vs)
	}
	seen := cov.Seen()
	found := false
	for _, s := range seen {
		if s.Observed == (Observed{Controller: "dir", Trigger: "timeout:txn", State: "Exclusive"}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("dir timeout not attributed to timeout:txn in Exclusive: %v", seen)
	}
}

func TestCoverageRejectsMisrouting(t *testing.T) {
	m := synthModel()
	// Claim Inv is handled on the dir side: coverage would file its
	// observations under the wrong controller, so NewCoverage must refuse.
	m.Controller("dir").Lookup("Inv", "Idle").Kind = Handled
	if _, err := NewCoverage(m); err == nil {
		t.Fatal("NewCoverage accepted a model whose routing disagrees with the checker")
	}
	m2 := synthModel()
	m2.Controllers = m2.Controllers[:1]
	if _, err := NewCoverage(m2); err == nil {
		t.Fatal("NewCoverage accepted a model without a dir controller")
	}
}
