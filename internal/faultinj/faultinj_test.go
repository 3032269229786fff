package faultinj

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// numKinds is netsim's message-kind count; this package cannot import it.
const numKinds = 18

// decideSeq runs a fixed call sequence against a fresh plan and returns the
// decisions.
func decideSeq(cfg Config, n int) []Decision {
	p := New(cfg)
	out := make([]Decision, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.Decide(i%7, i%4, (i+1)%4, true))
	}
	return out
}

func TestDeterministicDecisions(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.1, Dup: 0.05, Delay: 0.2, Jitter: 30}
	a := decideSeq(cfg, 5000)
	b := decideSeq(cfg, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	faults := 0
	for _, d := range a {
		if d.Action != Deliver {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("plan with nonzero probabilities injected no faults in 5000 sends")
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	a := decideSeq(Config{Seed: 1, Drop: 0.3}, 2000)
	b := decideSeq(Config{Seed: 2, Drop: 0.3}, 2000)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestNonDroppableConversion(t *testing.T) {
	p := New(Config{Seed: 7, Drop: 1, Jitter: 10})
	for i := 0; i < 100; i++ {
		d := p.Decide(3, 0, 1, false)
		if d.Action != Delay {
			t.Fatalf("non-droppable kind got action %v, want delay", d.Action)
		}
		if d.Delay < 1 || d.Delay > 10 {
			t.Fatalf("converted delay %d outside [1, 10]", d.Delay)
		}
	}
	st := p.Stats()
	if st.Converted != 100 || st.Delayed != 100 || st.Dropped != 0 {
		t.Fatalf("conversion stats: %+v", st)
	}
}

func TestScriptedNthRule(t *testing.T) {
	cfg := Config{Rules: []Rule{
		{Kind: 5, Src: -1, Dst: 7, Nth: 3, Action: Drop},
	}}
	p := New(cfg)
	for i := 1; i <= 5; i++ {
		d := p.Decide(5, 2, 7, true)
		want := Deliver
		if i == 3 {
			want = Drop
		}
		if d.Action != want {
			t.Fatalf("occurrence %d: got %v, want %v", i, d.Action, want)
		}
		if i == 3 && !d.Scripted {
			t.Fatal("fired rule not marked scripted")
		}
	}
	// Non-matching traffic must not advance the counter.
	if d := p.Decide(4, 2, 7, true); d.Action != Deliver {
		t.Fatalf("non-matching kind got %v", d.Action)
	}
	if hits := p.RuleHits(); hits[0] != 5 {
		t.Fatalf("rule hits = %d, want 5", hits[0])
	}
}

func TestScriptedDropOverridesDroppable(t *testing.T) {
	// Scripted rules may drop kinds the probabilistic model only delays.
	p := New(Config{Rules: []Rule{{Kind: -1, Src: -1, Dst: -1, Nth: 1, Action: Drop}}})
	if d := p.Decide(0, 0, 1, false); d.Action != Drop {
		t.Fatalf("scripted drop on non-droppable kind got %v", d.Action)
	}
}

func TestScriptedEveryOccurrence(t *testing.T) {
	p := New(Config{Rules: []Rule{{Kind: 2, Src: 0, Dst: 1, Action: Delay, Delay: 9}}})
	for i := 0; i < 3; i++ {
		d := p.Decide(2, 0, 1, true)
		if d.Action != Delay || d.Delay != 9 {
			t.Fatalf("occurrence %d: %+v", i, d)
		}
	}
}

func TestPerKindAndPerLinkOverrides(t *testing.T) {
	cfg := Config{
		Seed:       3,
		DropByKind: map[int]float64{4: 1},
		DropByLink: []LinkDrop{{Src: 5, Dst: 0, Prob: 0}, {Src: 2, Dst: 3, Prob: 1}},
	}
	p := New(cfg)
	if d := p.Decide(4, 0, 1, true); d.Action != Drop {
		t.Fatalf("per-kind override: got %v, want drop", d.Action)
	}
	if d := p.Decide(0, 2, 3, true); d.Action != Drop {
		t.Fatalf("per-link override: got %v, want drop", d.Action)
	}
	if d := p.Decide(0, 1, 2, true); d.Action != Deliver {
		t.Fatalf("unmatched traffic: got %v, want deliver", d.Action)
	}
	if d := p.Decide(4, 5, 0, true); d.Action != Deliver {
		t.Fatalf("link override after a kind override: got %v, want deliver", d.Action)
	}
}

func TestParse(t *testing.T) {
	kinds := func(s string) (int, bool) {
		if s == "Inv" {
			return 6, true
		}
		return 0, false
	}
	cfg, err := Parse("drop=0.05, dup=0.01, delay=0.2, jitter=40, seed=7, dropkind=Inv:0.5, droplink=2-5:0.25", numKinds, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Drop != 0.05 || cfg.Dup != 0.01 || cfg.Delay != 0.2 || cfg.Jitter != 40 || cfg.Seed != 7 {
		t.Fatalf("parsed config: %+v", cfg)
	}
	if cfg.DropByKind[6] != 0.5 {
		t.Fatalf("dropkind: %+v", cfg.DropByKind)
	}
	if want := []LinkDrop{{Src: 2, Dst: 5, Prob: 0.25}}; !reflect.DeepEqual(cfg.DropByLink, want) {
		t.Fatalf("droplink: %+v", cfg.DropByLink)
	}
	if !cfg.Enabled() {
		t.Fatal("parsed config not Enabled")
	}

	if cfg, err := Parse("", numKinds, nil); err != nil || cfg.Enabled() {
		t.Fatalf("empty spec: cfg=%+v err=%v", cfg, err)
	}
	if cfg, err := Parse("dropkind=9:1", numKinds, nil); err != nil || cfg.DropByKind[9] != 1 {
		t.Fatalf("numeric kind: cfg=%+v err=%v", cfg, err)
	}
	if cfg, err := Parse("drop=1,dup=0,dropkind=17:0.5,droplink=0-0:1", numKinds, nil); err != nil || cfg.DropByKind[17] != 0.5 {
		t.Fatalf("boundary values: cfg=%+v err=%v", cfg, err)
	}

	for _, bad := range []string{
		"bogus=1", "drop=2", "drop=-0.5", "drop", "jitter=-3",
		"dropkind=Nope:0.5", "dropkind=Inv", "droplink=2:0.5", "droplink=a-b:0.5",
		// Out-of-range values a run could not honour: a dense kind table
		// sized by a huge key, a kind the network does not have, NaN.
		"dropkind=1000000000000:0.5", "dropkind=9223372036854775807:0.5",
		"dropkind=18:0.5", "dropkind=100:0.5", "dropkind=-1:0.5", "dropkind=Inv:NaN",
		"drop=NaN", "dup=NaN", "delay=+Inf", "droplink=2-5:1.5",
		// A link given twice: one of its probabilities would be ignored.
		"droplink=2-5:0.25,droplink=2-5:0.5",
	} {
		if _, err := Parse(bad, numKinds, kinds); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	p := New(Config{Seed: 11, Delay: 1, Jitter: 5})
	for i := 0; i < 200; i++ {
		d := p.Decide(0, 0, 1, true)
		if d.Action != Delay || d.Delay < 1 || d.Delay > 5 {
			t.Fatalf("decision %d: %+v", i, d)
		}
	}
	// Zero jitter falls back to DefaultJitter.
	p = New(Config{Seed: 11, Delay: 1})
	for i := 0; i < 200; i++ {
		if d := p.Decide(0, 0, 1, true); d.Delay < 1 || d.Delay > DefaultJitter {
			t.Fatalf("default jitter decision %d: %+v", i, d)
		}
	}
}

// fullPlan sets every field of a fault plan: one link override, two kinds,
// and two rules with different actions.
func fullPlan() *Config {
	return &Config{
		Seed: 7, Drop: 0.02, Dup: 0.01, Delay: 0.05, Jitter: 48,
		DropByKind: map[int]float64{2: 0.5, 4: 0.125},
		DropByLink: []LinkDrop{{Src: 1, Dst: 2, Prob: 0.25}},
		Rules: []Rule{
			{Kind: 1, Src: -1, Dst: -1, Nth: 2, Action: Drop},
			{Kind: 3, Src: 0, Dst: 1, Action: Delay, Delay: 9},
		},
	}
}

// A fault plan persists as the JSON soak specs and journals have always
// stored, byte for byte, and reads back into the same valid plan.
func TestConfigJSONRoundTrip(t *testing.T) {
	const persisted = `{"seed":7,"drop":0.02,"dup":0.01,"delay":0.05,"jitter":48,` +
		`"drop_by_kind":{"2":0.5,"4":0.125},"drop_by_link":[{"src":1,"dst":2,"prob":0.25}],` +
		`"rules":[{"kind":1,"src":-1,"dst":-1,"nth":2,"action":"drop"},{"kind":3,"src":0,"dst":1,"action":"delay","delay":9}]}`
	data, err := json.Marshal(fullPlan())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != persisted {
		t.Fatalf("marshaled plan\n%s\nwant\n%s", data, persisted)
	}
	var got Config
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, fullPlan()) {
		t.Fatalf("round trip changed the plan:\n%+v\n%+v", got, *fullPlan())
	}
	if err := got.Validate(numKinds); err != nil {
		t.Fatal(err)
	}
	if data, err := json.Marshal(Config{}); err != nil || string(data) != "{}" {
		t.Fatalf("zero plan marshals as %s (%v), want {}", data, err)
	}

	err = json.Unmarshal([]byte(`{"rules":[{"kind":1,"src":-1,"dst":-1,"action":"melt"}]}`), &got)
	if err == nil || !strings.Contains(err.Error(), `unknown fault action "melt"`) {
		t.Fatalf("unknown action: error %v", err)
	}
}

func TestActionString(t *testing.T) {
	want := map[Action]string{Deliver: "deliver", Drop: "drop", Duplicate: "dup", Delay: "delay"}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("Action(%d).String() = %q, want %q", a, a.String(), s)
		}
	}
	if NumActions.String() != "Action(4)" {
		t.Errorf("out-of-range String: %q", NumActions.String())
	}
}
