package dsisim

import (
	"strings"
	"testing"
)

func testCfg(wl string, p Protocol) Config {
	return Config{Workload: wl, Protocol: p, Processors: 8, Scale: ScaleTest}
}

func TestRunAllProtocolsOnAllWorkloads(t *testing.T) {
	for _, wl := range Workloads() {
		for _, p := range Protocols() {
			res, err := Run(testCfg(wl, p))
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, p, err)
			}
			if res.ExecTime <= 0 {
				t.Fatalf("%s/%s: exec time %d", wl, p, res.ExecTime)
			}
		}
	}
}

func TestUnknownProtocol(t *testing.T) {
	if _, err := Run(testCfg("em3d", Protocol("bogus"))); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run(testCfg("bogus", SC)); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestPaperWorkloadsAreRegistered(t *testing.T) {
	all := strings.Join(Workloads(), " ")
	for _, w := range PaperWorkloads() {
		if !strings.Contains(all, w) {
			t.Fatalf("paper workload %s missing from %s", w, all)
		}
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	res, err := Run(Config{Workload: "prodcons", Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	// 32 processors by default.
	if len(res.PerProc) != 32 {
		t.Fatalf("default processors = %d, want 32", len(res.PerProc))
	}
}

func TestRunProgramCustom(t *testing.T) {
	prog := &pingPong{}
	res, err := RunProgram(Config{Protocol: V, Processors: 2}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Barriers == 0 {
		t.Fatal("custom program ran no barriers")
	}
}

// pingPong is a minimal custom Program exercising the public API surface.
type pingPong struct {
	data Region
}

func (p *pingPong) Name() string        { return "pingpong" }
func (p *pingPong) WarmupBarriers() int { return 0 }
func (p *pingPong) Setup(m *Machine) {
	p.data = m.Layout().AllocInterleaved("pp", BlockSize)
}
func (p *pingPong) Kernel(pr *Proc) {
	for i := 0; i < 4; i++ {
		if i%2 == pr.ID() {
			pr.WriteWord(p.data.Addr(0), uint64(i+1))
		}
		pr.Barrier()
		v := pr.Read(p.data.Addr(0))
		if v.Word != uint64(i+1) {
			pr.Failf("round %d word %d", i, v.Word)
		}
		pr.Barrier()
	}
}

// The headline claims, checked at test scale so `go test` stays fast; the
// full-scale numbers live in EXPERIMENTS.md and the benchmarks.
func TestDSIReducesInvalidationTrafficOnSparse(t *testing.T) {
	sc, err := Run(Config{Workload: "sparse", Protocol: SC, Processors: 16, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Run(Config{Workload: "sparse", Protocol: V, Processors: 16, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if v.Messages.Invalidation() >= sc.Messages.Invalidation() {
		t.Fatalf("V did not reduce invalidations: %d vs %d",
			v.Messages.Invalidation(), sc.Messages.Invalidation())
	}
	if v.ExecTime >= sc.ExecTime {
		t.Fatalf("V did not speed up sparse: %d vs %d", v.ExecTime, sc.ExecTime)
	}
}

func TestTearOffEliminatesMessages(t *testing.T) {
	w, err := Run(Config{Workload: "sparse", Protocol: W, Processors: 16, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	wdsi, err := Run(Config{Workload: "sparse", Protocol: WDSI, Processors: 16, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if wdsi.Messages.Total() >= w.Messages.Total() {
		t.Fatalf("tear-off did not cut traffic: %d vs %d", wdsi.Messages.Total(), w.Messages.Total())
	}
}

func TestResultsAreDeterministic(t *testing.T) {
	a, err := Run(testCfg("barnes", WDSI))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testCfg("barnes", WDSI))
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime || a.Messages != b.Messages {
		t.Fatal("same config, different results")
	}
}

// TestParseFaultsRejectsOutOfRange checks the public fault-spec parser
// against the interconnect's real kind table: input no plan can honour is a
// named error, never an accepted plan that crashes or silently does nothing
// when the run builds it.
func TestParseFaultsRejectsOutOfRange(t *testing.T) {
	for _, bad := range []string{
		"dropkind=1000000000000:0.5",       // would size a dense kind table by the key
		"dropkind=9223372036854775807:0.5", // would overflow that table's length
		"dropkind=100:0.5",                 // no such kind: would drop nothing
		"drop=NaN",
	} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) succeeded, want error", bad)
		}
	}
	if _, err := ParseFaults("drop=1,dropkind=NackHome:0.5"); err != nil {
		t.Errorf("boundary spec rejected: %v", err)
	}
}
