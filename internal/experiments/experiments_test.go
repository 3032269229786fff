package experiments

import (
	"reflect"
	"strings"
	"testing"

	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/workload"
)

// fast returns test-scale options so the whole experiment suite runs in CI
// time.
func fast() Options {
	return Options{Processors: 8, Scale: workload.ScaleTest}
}

func TestAllArtifactsRender(t *testing.T) {
	for _, name := range Artifacts() {
		name := name
		t.Run(name, func(t *testing.T) {
			out, err := Run(name, fast())
			if err != nil {
				t.Fatal(err)
			}
			if len(out) == 0 {
				t.Fatal("empty report")
			}
			if name == ArtifactSweeps {
				// The sweep extension covers a representative subset.
				if !strings.Contains(out, "em3d") || !strings.Contains(out, "sparse") {
					t.Fatalf("sweep report missing workloads:\n%s", out)
				}
				return
			}
			if name == ArtifactTraffic {
				// The traffic extension covers the traffic-shaped generators.
				for _, w := range workload.TrafficNames() {
					if !strings.Contains(out, w) {
						t.Fatalf("traffic report missing %s:\n%s", w, out)
					}
				}
				return
			}
			for _, w := range workload.PaperNames() {
				if !strings.Contains(out, w) {
					t.Fatalf("report for %s missing %s:\n%s", name, w, out)
				}
			}
		})
	}
}

func TestUnknownArtifact(t *testing.T) {
	if _, err := Run("fig99", fast()); err == nil {
		t.Fatal("unknown artifact accepted")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m, err := RunMatrix([]string{"sparse"}, []Label{SC, V}, fast())
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("sparse", SC).ExecTime == 0 {
		t.Fatal("empty cell")
	}
	if n := m.Normalized("sparse", SC, SC); n != 1.0 {
		t.Fatalf("self-normalization = %v", n)
	}
	if imp := m.Improvement("sparse", V, SC); imp <= -1 || imp >= 1 {
		t.Fatalf("improvement out of range: %v", imp)
	}
	tb := m.Table("t", SC)
	if len(tb.Rows) != 1 || tb.Rows[0][1] != "1.00" {
		t.Fatalf("table = %+v", tb)
	}
	bt := m.BreakdownTable("sparse")
	if len(bt.Rows) == 0 {
		t.Fatal("breakdown table empty")
	}
}

// TestRecoveryTable checks both sides of the recovery surface: a fault-free
// grid reports all-zero counters, and a faulty grid reports the retries the
// hardened protocol actually performed.
func TestRecoveryTable(t *testing.T) {
	clean, err := RunMatrix([]string{"sparse"}, []Label{SC}, fast())
	if err != nil {
		t.Fatal(err)
	}
	r := RecoveryOf(clean.Get("sparse", SC))
	if r != (Recovery{}) {
		t.Fatalf("fault-free run has recovery activity: %+v", r)
	}
	tb := clean.RecoveryTable("recovery")
	if len(tb.Rows) != 1 || tb.Rows[0][2] != "0" {
		t.Fatalf("table = %+v", tb)
	}

	o := fast()
	o.Faults = &faultinj.Config{Drop: 0.02, Seed: 11}
	faulty, err := RunMatrix([]string{"sparse"}, []Label{SC}, o)
	if err != nil {
		t.Fatal(err)
	}
	fr := RecoveryOf(faulty.Get("sparse", SC))
	if fr.Injected == 0 {
		t.Fatalf("fault plan injected nothing: %+v", fr)
	}
	if fr.Timeouts == 0 || fr.Retries == 0 {
		t.Fatalf("hardened protocol recorded no recovery: %+v", fr)
	}
	ft := faulty.RecoveryTable("recovery under faults")
	if ft.Rows[0][3] == "0" {
		t.Fatalf("table does not surface timeouts: %+v", ft.Rows[0])
	}
}

func TestCacheClassProperties(t *testing.T) {
	if SmallCache.Bytes() >= LargeCache.Bytes() {
		t.Fatal("cache classes inverted")
	}
	if SmallCache.String() == LargeCache.String() {
		t.Fatal("cache class names collide")
	}
}

func TestLabelConfigs(t *testing.T) {
	for _, l := range []Label{SC, W, S, V, VFIFO, WDSI} {
		cons, pol := l.Config()
		_ = cons
		switch l {
		case SC, W:
			if pol.Enabled() {
				t.Fatalf("%s has DSI enabled", l)
			}
		default:
			if !pol.Enabled() {
				t.Fatalf("%s has DSI disabled", l)
			}
		}
	}
}

func TestAblationRunners(t *testing.T) {
	o := fast()
	if _, err := RunFIFO("sparse", 8, o); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"never", "states", "versions", "always"} {
		if _, err := RunIdentifier("migratory", id, o); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RunIdentifier("migratory", "bogus", o); err == nil {
		t.Fatal("unknown identifier accepted")
	}
	if _, err := RunUpgradeExemption("sparse", false, o); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWC("sparse", 4, true, o); err != nil {
		t.Fatal(err)
	}
}

// TestAblationsMatchLabels pins the ablation runners whose policy a protocol
// label already names: each returns exactly what RunOne returns under that
// label.
func TestAblationsMatchLabels(t *testing.T) {
	o := fast()
	cases := []struct {
		name  string
		label Label
		run   func() (machine.Result, error)
	}{
		{"identifier=never", SC, func() (machine.Result, error) { return RunIdentifier("migratory", "never", o) }},
		{"identifier=states", S, func() (machine.Result, error) { return RunIdentifier("migratory", "states", o) }},
		{"identifier=versions", V, func() (machine.Result, error) { return RunIdentifier("migratory", "versions", o) }},
		{"migratory", "MIG", func() (machine.Result, error) { return RunMigratory("migratory", false, o) }},
		{"migratory+dsi", "MIG+V", func() (machine.Result, error) { return RunMigratory("migratory", true, o) }},
		{"fifo=64", VFIFO, func() (machine.Result, error) { return RunFIFO("migratory", 64, o) }},
		{"exemption=true", V, func() (machine.Result, error) { return RunUpgradeExemption("migratory", true, o) }},
		{"wc/wb=16", W, func() (machine.Result, error) { return RunWC("migratory", 16, false, o) }},
		{"wc/wb=16/dsi", WDSI, func() (machine.Result, error) { return RunWC("migratory", 16, true, o) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := RunOne("migratory", c.label, o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("differs from RunOne under %s: %d vs %d cycles, %d vs %d messages",
					c.label, got.ExecTime, want.ExecTime, got.Messages.Total(), want.Messages.Total())
			}
		})
	}
}

// The directional claims that must hold even at test scale.
func TestSparseDSIDirection(t *testing.T) {
	m, err := RunMatrix([]string{"sparse"}, []Label{SC, V}, Options{Processors: 16, Scale: workload.ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if m.Normalized("sparse", V, SC) >= 1.0 {
		t.Fatalf("V does not beat SC on sparse: %v", m.Normalized("sparse", V, SC))
	}
}

func TestTable3Reductions(t *testing.T) {
	small, _, err := Table3Matrices(fast())
	if err != nil {
		t.Fatal(err)
	}
	total, inval := MessageReduction(small, "sparse")
	if inval <= 0 {
		t.Fatalf("sparse invalidation reduction = %v, want positive", inval)
	}
	if total < -0.05 {
		t.Fatalf("sparse total message reduction strongly negative: %v", total)
	}
}
