package dsisim_test

import (
	"os"
	"testing"

	"dsisim"
	"dsisim/internal/analysis/protomodel"
	"dsisim/internal/rng"
	"dsisim/internal/soak"
	"dsisim/internal/workload"
)

// TestTransitionCoverage is the runtime half of the protomodel cross-check
// (docs/ANALYSIS.md §protomodel): every (controller, trigger, state) triple
// observed while running real workloads must appear as a handled transition
// in the statically extracted table docs/protomodel.json. A violation means
// the protocol took a transition the extractor calls impossible — either
// the extractor lost a path or a //dsi:unreachable waiver is wrong. The
// grid is the paper workloads, prodcons under every protocol label with
// and without faults, and generated litmus programs; -v logs the coverage
// summary and every handled transition the grid leaves unexercised.
func TestTransitionCoverage(t *testing.T) {
	data, err := os.ReadFile("docs/protomodel.json")
	if err != nil {
		t.Fatalf("reading static model (regenerate with `go run ./cmd/dsivet -run protomodel -model docs/protomodel.json ./...`): %v", err)
	}
	model, err := protomodel.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := protomodel.NewCoverage(model)
	if err != nil {
		t.Fatal(err)
	}

	fold := func(label string, run func(sink *dsisim.CoherenceSink) error) {
		t.Helper()
		sink := dsisim.NewCoherenceSink()
		if err := run(sink); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cov.FoldSink(sink)
	}

	// Every paper workload under both DSI schemes, version numbers (V,
	// W+DSI) and additional states (S, W+DSI-S); the 2 KiB variant forces
	// capacity evictions (the WB/Repl replacement transitions never fire
	// otherwise at test scale, and the states scheme enters Idle_SI only
	// when a marked block is replaced).
	for _, wl := range dsisim.PaperWorkloads() {
		for _, pr := range []dsisim.Protocol{dsisim.V, dsisim.WDSI, dsisim.S, dsisim.WDSIStates} {
			for _, cacheBytes := range []int{0, 2048} {
				fold(wl+"/"+string(pr), func(sink *dsisim.CoherenceSink) error {
					_, err := dsisim.Run(dsisim.Config{
						Workload: wl, Scale: dsisim.ScaleTest, Protocol: pr,
						Processors: 8, CacheBytes: cacheBytes, Sink: sink,
					})
					return err
				})
			}
		}
	}

	// One cheap workload under every protocol label, clean and faulty (the
	// fault plan enables the hardened Nack/timeout transitions), on 8 and on
	// the default 32 processors: the two machines interleave differently.
	faults, err := dsisim.ParseFaults("drop=0.05,dup=0.02,delay=0.1,jitter=32,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{8, 32} {
		for _, pr := range dsisim.Protocols() {
			for _, fc := range []*dsisim.FaultConfig{nil, &faults} {
				fold("prodcons/"+string(pr), func(sink *dsisim.CoherenceSink) error {
					_, err := dsisim.Run(dsisim.Config{
						Workload: "prodcons", Scale: dsisim.ScaleTest, Protocol: pr,
						Processors: procs, Sink: sink, Faults: fc,
					})
					return err
				})
			}
		}
	}

	// Litmus programs across the litmus campaign's protocol x fault-plan
	// matrix, each plan seeded the way a soak cell seeds it.
	n := 8
	if testing.Short() {
		n = 1
	}
	space := soak.LitmusSpace(1)
	seeds := rng.New(0xc07e4a6e)
	for i := 0; i < n; i++ {
		spec := workload.GenLitmus(seeds.Uint64())
		for _, pr := range space.Protocols {
			for _, tm := range space.Templates {
				var fc *dsisim.FaultConfig
				if tm.Faults != nil {
					c := *tm.Faults
					c.Seed = soak.FaultSeedOf(spec.Seed)
					fc = &c
				}
				fold("litmus/"+pr.Name+"/"+tm.Name, func(sink *dsisim.CoherenceSink) error {
					_, _, err := workload.RunLitmus(spec, pr, fc, workload.LitmusRun{Sink: sink})
					return err
				})
			}
		}
	}

	for _, v := range cov.Violations() {
		t.Errorf("observed transition outside the static model (x%d): %s", v.Count, v.Observed)
	}

	sum := cov.Summarize()
	t.Logf("%s", sum)
	for _, m := range cov.Missing() {
		t.Logf("unexercised: %s", m)
	}
	if sum.Exercised < 30 {
		t.Errorf("only %d handled transitions exercised; the event fold is likely broken", sum.Exercised)
	}
	// Transitions any multiprocessor run must hit, plus the requests that
	// find a replaced marked block in Idle_SI, which the states-scheme runs
	// with small caches hit; missing one means the fold misroutes messages
	// or mistracks shadow state rather than that the workloads got unlucky.
	mustSee := []protomodel.Observed{
		{Controller: "dir", Trigger: "GetS", State: "Idle"},
		{Controller: "dir", Trigger: "GetX", State: "Idle"},
		{Controller: "cache", Trigger: "DataS", State: "Invalid"},
		{Controller: "cache", Trigger: "DataX", State: "Invalid"},
		{Controller: "dir", Trigger: "WB", State: "Exclusive"},
		{Controller: "dir", Trigger: "GetS", State: "IdleSI"},
		{Controller: "dir", Trigger: "GetX", State: "IdleSI"},
	}
	for _, want := range mustSee {
		found := false
		for _, s := range cov.Seen() {
			if s.Observed == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("never observed %s, which the grid always exercises", want)
		}
	}
}
