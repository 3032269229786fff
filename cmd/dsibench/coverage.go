package main

import (
	"fmt"
	"os"

	"dsisim"
	"dsisim/internal/analysis/protomodel"
	"dsisim/internal/rng"
	"dsisim/internal/soak"
	"dsisim/internal/workload"
)

// runTransitionCoverage is the runtime half of the protomodel cross-check
// (docs/ANALYSIS.md §protomodel): it drives the paper workloads and a batch
// of generated litmus programs — with and without injected faults — through
// machines with the coherence-event sink attached, folds every event stream
// into observed (controller, trigger, state) triples, and checks each
// against the statically extracted transition table. A violation means the
// running protocol took a transition the static model claims is impossible
// (or waived with //dsi:unreachable) — either the extractor or the waiver is
// wrong. Exit status is nonzero on any violation.
func runTransitionCoverage(modelPath string, procs, litmusN int) error {
	data, err := os.ReadFile(modelPath)
	if err != nil {
		return fmt.Errorf("reading static model (regenerate with `go run ./cmd/dsivet -run protomodel -model %s ./...`): %w", modelPath, err)
	}
	model, err := protomodel.Parse(data)
	if err != nil {
		return fmt.Errorf("%s: %w", modelPath, err)
	}
	cov, err := protomodel.NewCoverage(model)
	if err != nil {
		return err
	}

	fold := func(label string, run func(sink *dsisim.CoherenceSink) error) error {
		sink := dsisim.NewCoherenceSink()
		if err := run(sink); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		cov.FoldSink(sink)
		return nil
	}

	// Every paper workload under the two main DSI hot paths, at the default
	// cache size and at one small enough to force capacity evictions (the
	// WB/Repl replacement transitions never fire otherwise at test scale).
	runs := 0
	for _, wl := range dsisim.PaperWorkloads() {
		for _, pr := range []dsisim.Protocol{dsisim.V, dsisim.WDSI} {
			for _, cacheBytes := range []int{0, 2048} {
				runs++
				label := fmt.Sprintf("%s/%s/cache=%d", wl, pr, cacheBytes)
				err := fold(label, func(sink *dsisim.CoherenceSink) error {
					_, err := dsisim.Run(dsisim.Config{
						Workload: wl, Scale: dsisim.ScaleTest, Protocol: pr,
						Processors: procs, CacheBytes: cacheBytes, Sink: sink,
					})
					return err
				})
				if err != nil {
					return err
				}
			}
		}
	}

	// One cheap workload under every protocol label, clean and faulty (the
	// fault plan enables the hardened protocol's Nack/timeout transitions).
	faults, err := dsisim.ParseFaults("drop=0.05,dup=0.02,delay=0.1,jitter=32,seed=7")
	if err != nil {
		return err
	}
	for _, pr := range dsisim.Protocols() {
		for _, fc := range []*dsisim.FaultConfig{nil, &faults} {
			runs++
			label := fmt.Sprintf("prodcons/%s", pr)
			err := fold(label, func(sink *dsisim.CoherenceSink) error {
				_, err := dsisim.Run(dsisim.Config{
					Workload: "prodcons", Scale: dsisim.ScaleTest, Protocol: pr,
					Processors: probeProcs(procs), Sink: sink, Faults: fc,
				})
				return err
			})
			if err != nil {
				return err
			}
		}
	}

	// Litmus programs across the litmus campaign's protocol x fault-plan
	// matrix, each plan seeded the way a soak cell seeds it.
	space := soak.LitmusSpace(1)
	seeds := rng.New(0xc07e4a6e)
	for i := 0; i < litmusN; i++ {
		spec := workload.GenLitmus(seeds.Uint64())
		for _, pr := range space.Protocols {
			for _, t := range space.Templates {
				var fc *dsisim.FaultConfig
				if t.Faults != nil {
					c := *t.Faults
					c.Seed = soak.FaultSeedOf(spec.Seed)
					fc = &c
				}
				runs++
				label := fmt.Sprintf("litmus-%x/%s/%s", spec.Seed, pr.Name, t.Name)
				err := fold(label, func(sink *dsisim.CoherenceSink) error {
					_, _, err := workload.RunLitmus(spec, pr, fc, workload.LitmusRun{Sink: sink})
					return err
				})
				if err != nil {
					return err
				}
			}
		}
	}

	sum := cov.Summarize()
	fmt.Printf("%s (%d runs against %s)\n", sum, runs, modelPath)
	for _, m := range cov.Missing() {
		fmt.Printf("  unexercised: %s\n", m)
	}
	if vs := cov.Violations(); len(vs) > 0 {
		for _, v := range vs {
			fmt.Printf("  VIOLATION: %s observed %d time(s) but not in the static model\n", v.Observed, v.Count)
		}
		return fmt.Errorf("%d observed transition(s) outside the static model", len(vs))
	}
	return nil
}
