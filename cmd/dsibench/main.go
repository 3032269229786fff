// Command dsibench regenerates the paper's tables and figures, runs soak
// campaigns, and profiles the simulator itself. Host-time benchmarking lives
// in perfbench/ (same-host A/B runs); TestNilSinkAllocsUnchanged gates
// allocations.
//
// Usage:
//
//	dsibench [-experiment all|tab1|fig3|fig4|fig5|tab2|tab3|sweep|traffic] [-procs N] [-test]
//	         [-shard i/n] [-cache] [-cachemb N]
//	         [-cpuprofile f] [-memprofile f] [-trace f]
//	         [-soak | -fuzz N] [-soakcells N] [-soakdur d] [-soakseed S] [-soakjournal f]
//	         [-resume] [-soakcorpus dir] [-soakworkers N]
//
// Output is plain text, one table per artifact, with execution times
// normalized exactly as the paper reports them. Expect the full suite at
// paper scale to take several minutes: it simulates a 32-processor machine
// across ~60 configurations.
//
// -cache memoizes cell results in a content-addressed cache shared across
// the whole run (budget -cachemb MiB, default 256): paper artifacts that
// revisit a configuration another figure already simulated — and soak
// campaigns re-run over the same seeds — are served bit-identical results
// from memory. The simulator is deterministic, so a hit is observationally
// indistinguishable from a re-run; cache counters are printed at the end.
// The flag applies to artifact, -soak and -fuzz modes.
//
// The profiling flags wrap whichever mode runs: -cpuprofile and -memprofile
// write pprof profiles, -trace writes a runtime execution trace. They make
// the simulator's own hot path measurable (`go tool pprof`, `go tool
// trace`) instead of guessed at.
//
// -shard i/n (1-based) runs only the i-th of n round-robin slices of
// whatever grid is selected — paper artifacts for -experiment, campaign
// cells for -soak — so CI can fan either suite out across jobs. Both modes
// decide ownership with the same function (soak.Shard.Owns: shard i of n
// owns every index congruent to i-1 mod n), so a sharded soak campaign and
// a sharded artifact run slice their spaces identically:
//
//	go run ./cmd/dsibench -experiment all -shard 2/3
//	go run ./cmd/dsibench -soak -shard 2/3 -soakjournal soak-2of3.jsonl
//
// -soak runs the fault-seed soak farm (internal/soak) instead of
// experiments: the default campaign sweeps every paper and traffic workload
// plus generated litmus programs under SC, V, and W+DSI across four fault
// templates — 2040 cells — on a work-stealing runner. -soakcells and
// -soakdur bound one sitting (unbounded by default); -soakjournal
// checkpoints every verdict so -resume continues a killed campaign exactly
// where it stopped (SIGINT/SIGTERM drain in-flight cells and flush a final
// checkpoint first); -soakcorpus collects minimized replayable specs of
// deterministic failures (replay with `dsisim -replay`). The exit status is
// nonzero if any cell failed. A full campaign with a checkpoint:
//
//	go run ./cmd/dsibench -soak -soakjournal soak.jsonl -soakcorpus soak-failures
//
// -fuzz N runs a soak sitting over the litmus-only space instead
// (soak.LitmusSpace(N)): N repetitions of generated litmus programs under
// every protocol label (all 13 of proto.Labels) × fault plan (none, lossy,
// jitter), 39 cells per repetition, each checked by the kernel's read
// assertions, the coherence audit and an outcome cross-check against a
// sequential reference model. Every -soak* flag, -resume and -shard
// apply; failing cells are minimized and persisted under -soakcorpus like
// any soak failure. The 7800-cell sweep:
//
//	go run ./cmd/dsibench -fuzz 200 -soakseed 1
//
// One cell, with the coherence-event sink attached (event stream,
// block-lifetime tables, Chrome JSON), is cmd/dsisim's job:
//
//	go run ./cmd/dsisim -workload ocean -protocol W+DSI -test -blocks
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"syscall"
	"time"

	"dsisim"
	"dsisim/internal/experiments"
	"dsisim/internal/soak"
	"dsisim/internal/workload"
)

func main() {
	exp := flag.String("experiment", "all", "artifact to regenerate: all, or one of tab1 fig3 fig4 fig5 tab2 tab3 sweep traffic")
	procs := flag.Int("procs", 32, "simulated processors")
	testScale := flag.Bool("test", false, "use tiny test-scale inputs (fast smoke run)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	shard := flag.String("shard", "", "run only the i-th of n artifact slices, as i/n (1-based), e.g. 2/3")
	fuzzN := flag.Int("fuzz", 0, "run a soak sitting over N repetitions of the litmus-only space (39 protocol x fault-plan cells each) instead of experiments")
	soakRun := flag.Bool("soak", false, "run the fault-seed soak campaign instead of experiments")
	soakCells := flag.Int("soakcells", 0, "bound one -soak sitting to N cells (0 = all owned cells)")
	soakDur := flag.Duration("soakdur", 0, "stop claiming new -soak cells after this long, e.g. 10m (0 = no bound)")
	soakSeed := flag.Uint64("soakseed", 1, "campaign seed for -soak and -fuzz")
	soakJournal := flag.String("soakjournal", "", "append-only JSONL checkpoint journal for -soak and -fuzz ('' = no checkpointing)")
	soakResume := flag.Bool("resume", false, "resume the -soakjournal campaign, skipping journaled cells")
	soakCorpus := flag.String("soakcorpus", "soak-failures", "directory for minimized replayable specs of -soak and -fuzz failures")
	soakWorkers := flag.Int("soakworkers", 0, "work-stealing workers for -soak and -fuzz (0 = GOMAXPROCS)")
	useCache := flag.Bool("cache", false, "memoize cell results in a content-addressed cache shared across the run (paper artifacts, -soak and -fuzz)")
	cacheMB := flag.Int64("cachemb", 256, "result-cache budget in MiB (with -cache)")
	flag.Parse()

	var cache *dsisim.ResultCache
	if *useCache {
		cache = dsisim.NewResultCache(*cacheMB << 20)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fatal(err)
		}
		defer rtrace.Stop()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}()

	if *soakRun || *fuzzN > 0 {
		if *soakRun && *fuzzN > 0 {
			fatal(fmt.Errorf("-soak and -fuzz pick different campaign spaces; give one"))
		}
		var space soak.Space // the default campaign
		if *fuzzN > 0 {
			space = soak.LitmusSpace(*fuzzN)
		}
		sh, err := soak.ParseShard(*shard)
		if err != nil {
			fatal(err)
		}
		if err := runSoak(soakOptions{
			space:   space,
			cells:   *soakCells,
			dur:     *soakDur,
			seed:    *soakSeed,
			journal: *soakJournal,
			resume:  *soakResume,
			corpus:  *soakCorpus,
			workers: *soakWorkers,
			shard:   sh,
			cache:   cache,
		}); err != nil {
			fatal(err)
		}
		return
	}
	if *soakResume {
		fatal(fmt.Errorf("-resume requires -soak or -fuzz"))
	}

	o := experiments.Options{Processors: *procs, Cache: cache}
	if *testScale {
		o.Scale = workload.ScaleTest
	}

	names := experiments.Artifacts()
	if *exp != "all" {
		names = []string{*exp}
	}
	if *shard != "" {
		sharded, err := shardSlice(names, *shard)
		if err != nil {
			fatal(err)
		}
		names = sharded
	}
	for _, name := range names {
		start := time.Now()
		out, err := experiments.Run(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsibench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", name, time.Since(start).Seconds(), out)
	}
	if cache != nil {
		fmt.Println(cache.Stats().Table().Render())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsibench:", err)
	os.Exit(1)
}

// shardSlice returns the shard's round-robin slice of names. Ownership is
// decided by soak.Shard.Owns — the same function that slices soak campaign
// cells — so every -shard fan-out in the tool partitions its index space
// identically. Round-robin (not contiguous) so the shards stay balanced
// when the artifact list is roughly sorted by cost.
func shardSlice(names []string, spec string) ([]string, error) {
	sh, err := soak.ParseShard(spec)
	if err != nil {
		return nil, fmt.Errorf("-shard %w", err)
	}
	var out []string
	for k, name := range names {
		if sh.Owns(k) {
			out = append(out, name)
		}
	}
	return out, nil
}

// soakOptions carries the -soak* flag values into runSoak.
type soakOptions struct {
	space   soak.Space // zero = the default campaign
	cells   int
	dur     time.Duration
	seed    uint64
	journal string
	resume  bool
	corpus  string
	workers int
	shard   soak.Shard
	cache   *dsisim.ResultCache
}

// runSoak drives one sitting of a soak campaign. SIGINT/SIGTERM
// trigger a graceful drain: workers stop claiming cells, in-flight cells
// finish and are journaled, and the final checkpoint is flushed, so a
// Ctrl-C'd campaign resumes with -resume exactly where it stopped.
func runSoak(o soakOptions) error {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "dsibench: %v: draining in-flight soak cells (repeat to kill)\n", s)
		close(stop)
		signal.Stop(sigc)
	}()
	defer signal.Stop(sigc)

	opts := soak.Options{
		Space:     o.space,
		Seed:      o.seed,
		Cache:     o.cache,
		Shard:     o.shard,
		MaxCells:  o.cells,
		Duration:  o.dur,
		Workers:   o.workers,
		Journal:   o.journal,
		Resume:    o.resume,
		Corpus:    o.corpus,
		Stop:      stop,
		Heartbeat: 10 * time.Second,
		Log:       os.Stderr,
	}
	start := time.Now()
	rep, err := soak.Run(opts)
	if err != nil {
		return err
	}
	fmt.Printf("soak: %d/%d owned cells verdicted (%d recovered, %d run this sitting, %d still pending), %d steals, %d triage reruns, %.1fs\n",
		rep.Recovered+rep.Ran, rep.Owned, rep.Recovered, rep.Ran, rep.Drained,
		rep.Steals, rep.Reruns, time.Since(start).Seconds())
	fmt.Println(soak.Aggregate(rep.Verdicts).Render())
	if o.cache != nil {
		fmt.Println(o.cache.Stats().Table().Render())
	}
	if rep.Failures == 0 {
		return nil
	}
	for _, v := range rep.Verdicts {
		if v.Status != soak.StatusFail {
			continue
		}
		fmt.Printf("soak FAIL cell %d %s/%s/%s seed %016x [%s]: %s\n",
			v.Cell, v.Workload, v.Protocol, v.Template, v.Seed, v.Class, v.Err)
		if v.Spec != "" {
			fmt.Printf("    replay: go run ./cmd/dsisim -replay %s\n", v.Spec)
		}
	}
	return fmt.Errorf("%d failing soak cells", rep.Failures)
}
