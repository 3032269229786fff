package soak

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/simcache"
	"dsisim/internal/stats"
	"dsisim/internal/steal"
	"dsisim/internal/workload"
)

// Options configures one campaign sitting. Zero values mean: default space,
// seed 0, unsharded, run every owned cell, no wall-clock bound, GOMAXPROCS
// workers, no journal, no corpus, 2 triage re-runs, 8-processor machines at
// test scale, no heartbeat.
type Options struct {
	Space Space
	Seed  uint64 // campaign seed: the SeedOf base for every cell
	Shard Shard

	MaxCells int           // cells to run this sitting (0 = all owned)
	Duration time.Duration // stop claiming new cells after this long (0 = none)
	Workers  int

	Journal string // checkpoint path ("" = no journal)
	Resume  bool   // recover completed cells from an existing journal
	Corpus  string // directory for minimized failure specs ("" = no persistence)
	Reruns  int    // triage re-runs per failure (0 = 2)

	Procs      int    // registry-workload machine shape (0 = 8)
	CacheBytes int    // 0 = machine default
	Scale      string // "" = test

	Stop      <-chan struct{} // graceful drain: finish in-flight cells, checkpoint, exit
	Heartbeat time.Duration   // progress-line period (0 = silent)
	Log       io.Writer       // heartbeat destination (nil = os.Stderr)

	// Cache, if set, memoizes registry-workload cell results by their
	// canonical simcache key. The handle is caller-owned, so it survives
	// kill/resume sittings of the same process and is shared across
	// campaigns. Litmus cells always execute (generated programs have no
	// canonical request key), and triage re-runs bypass the cache — flake
	// classification needs real re-execution. Verdicts record hit-vs-computed
	// in Verdict.Cached.
	Cache *simcache.Cache

	// canary breaks litmus-cell writes (see workload.LitmusRun.Canary): the
	// test hook proving the farm detects, classifies, minimizes, and persists
	// a real protocol failure end to end.
	canary bool
}

// Report summarizes one campaign sitting.
type Report struct {
	Owned     int // cells this shard owns
	Recovered int // verdicts recovered from the journal on resume
	Ran       int // cells executed this sitting
	Drained   int // owned cells left unrun by a stop/duration/MaxCells bound
	Failures  int // failing verdicts across the union
	Steals    int64
	Reruns    int64 // triage re-executions

	// Verdicts is the union of recovered and fresh verdicts, sorted by cell
	// index. For a completed campaign this slice is bit-identical however
	// many kills and resumes it took — the resume test's acceptance bar.
	Verdicts []Verdict
}

// Run executes one campaign sitting and returns its report. A non-nil error
// means the campaign infrastructure failed (bad space, unusable journal);
// cell failures are data, not errors — they land in the journal, the
// corpus, and Report.Failures.
func Run(o Options) (*Report, error) {
	if len(o.Space.Workloads) == 0 {
		o.Space = DefaultSpace()
	}
	if err := o.Space.Validate(); err != nil {
		return nil, err
	}
	if o.Reruns <= 0 {
		o.Reruns = 2
	}
	if o.Log == nil {
		o.Log = os.Stderr
	}

	var j *Journal
	if o.Journal != "" {
		var err error
		if j, err = OpenJournal(o.Journal, o.params(), o.Resume); err != nil {
			return nil, err
		}
		defer j.Close()
	}
	if o.Corpus != "" {
		if err := os.MkdirAll(o.Corpus, 0o755); err != nil {
			return nil, err
		}
	}

	// The work list: owned cells with no journaled verdict, bounded by
	// MaxCells. Kept in index order so steal.Runner's contiguous chunks map
	// to contiguous cell ranges.
	rep := &Report{}
	var todo []int
	for i := 0; i < o.Space.Cells(); i++ {
		if !o.Shard.Owns(i) {
			continue
		}
		rep.Owned++
		if j != nil {
			if _, done := j.Done[i]; done {
				rep.Recovered++
				continue
			}
		}
		if o.MaxCells > 0 && len(todo) >= o.MaxCells {
			continue
		}
		todo = append(todo, i)
	}

	var deadline time.Time
	if o.Duration > 0 {
		deadline = time.Now().Add(o.Duration)
	}
	stopped := func() bool {
		select {
		case <-o.Stop:
			return true
		default:
		}
		return !deadline.IsZero() && time.Now().After(deadline)
	}

	runner := steal.New(len(todo), o.Workers)
	pools := make([]machine.Pool, runner.Workers())
	fresh := make([]*Verdict, len(todo))
	var done, failed, reruns atomic.Int64
	var appendErr error
	var appendMu sync.Mutex

	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	if o.Heartbeat > 0 {
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			tick := time.NewTicker(o.Heartbeat)
			defer tick.Stop()
			start := time.Now()
			for {
				select {
				case <-hbStop:
					return
				case <-tick.C:
					line := fmt.Sprintf("soak: %d/%d cells this sitting (%d recovered), %d fail, %d steals, %d triage reruns, %s elapsed",
						done.Load(), len(todo), rep.Recovered, failed.Load(),
						runner.Steals(), reruns.Load(), time.Since(start).Round(time.Second))
					if o.Cache != nil {
						cs := o.Cache.Stats()
						line += fmt.Sprintf(", cache %dh/%dm/%de %dKB",
							cs.Hits, cs.Misses, cs.Evictions, cs.Bytes/1024)
					}
					fmt.Fprintln(o.Log, line)
				}
			}
		}()
	}

	runner.Run(func(worker, item int) {
		if stopped() {
			return
		}
		cell := o.Space.Cell(o.Seed, todo[item])
		v := runCell(&pools[worker], cell, o)
		if v.Status == StatusFail {
			triage(&pools[worker], cell, &v, o, &reruns)
			failed.Add(1)
		}
		fresh[item] = &v
		done.Add(1)
		if j != nil {
			if err := j.Append(v); err != nil {
				appendMu.Lock()
				if appendErr == nil {
					appendErr = err
				}
				appendMu.Unlock()
			}
		}
	})
	close(hbStop)
	hbWG.Wait()
	if appendErr != nil {
		return nil, fmt.Errorf("soak: journal append: %w", appendErr)
	}

	rep.Steals = runner.Steals()
	rep.Reruns = reruns.Load()
	union := make(map[int]Verdict)
	if j != nil {
		//dsi:anyorder verdicts are re-sorted by cell index below
		for c, v := range j.Done {
			union[c] = v
		}
	}
	for _, v := range fresh {
		if v != nil {
			union[v.Cell] = *v
			rep.Ran++
		}
	}
	rep.Drained = rep.Owned - rep.Recovered - rep.Ran
	rep.Verdicts = make([]Verdict, 0, len(union))
	//dsi:anyorder verdicts are sorted by cell index below
	for _, v := range union {
		rep.Verdicts = append(rep.Verdicts, v)
	}
	sort.Slice(rep.Verdicts, func(a, b int) bool { return rep.Verdicts[a].Cell < rep.Verdicts[b].Cell })
	for _, v := range rep.Verdicts {
		if v.Status == StatusFail {
			rep.Failures++
		}
	}
	if j != nil {
		if err := j.Close(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// faultsFor instantiates a cell's fault plan: the template config with the
// per-cell fault seed filled in (nil for the fault-free template).
func faultsFor(cell Cell) *faultinj.Config {
	if cell.Template.Faults == nil {
		return nil
	}
	fc := *cell.Template.Faults
	fc.Seed = FaultSeedOf(cell.Seed)
	return &fc
}

// machineConfig shapes a registry-workload machine for a cell.
func machineConfig(cell Cell, o Options, fc *faultinj.Config) machine.Config {
	procs := o.Procs
	if procs == 0 {
		procs = 8
	}
	return machine.Config{
		Processors:  procs,
		CacheBytes:  o.CacheBytes,
		CacheAssoc:  4,
		Consistency: cell.Protocol.Consistency,
		Policy:      cell.Protocol.Policy,
		Seed:        cell.Seed | 1,
		Faults:      fc,
	}
}

// runCell executes one cell through its oracles and returns the verdict
// (before triage).
func runCell(pool *machine.Pool, cell Cell, o Options) Verdict {
	v := Verdict{
		Cell:     cell.Index,
		Workload: cell.Workload,
		Protocol: cell.Protocol.Name,
		Template: cell.Template.Name,
		Seed:     cell.Seed,
		Status:   StatusOK,
	}
	var err error
	if cell.Workload == LitmusWorkload {
		v.Events, v.Cycles, err = workload.RunLitmus(workload.GenLitmus(cell.Seed), cell.Protocol,
			faultsFor(cell), workload.LitmusRun{Canary: o.canary})
	} else {
		err = func() error {
			scale, serr := scaleOf(o.Scale)
			if serr != nil {
				return serr
			}
			cfg := machineConfig(cell, o, faultsFor(cell))
			// The workload build lives inside the compute closure so a cache
			// hit skips program construction along with the simulation; a
			// workload error surfaces as a failed Result, which the cache
			// never stores.
			var wlErr error
			compute := func() machine.Result {
				prog, perr := workload.New(cell.Workload, scale)
				if perr != nil {
					wlErr = perr
					return machine.Result{Errors: []string{perr.Error()}}
				}
				m := pool.Get(cfg)
				res := m.Run(prog)
				pool.Put(m)
				return res
			}
			key := simcache.RequestOf(cell.Workload, scale.String(), cell.Protocol.Name, cfg).Key()
			res, hit := o.Cache.Do(key, compute)
			if wlErr != nil {
				return wlErr
			}
			v.Cached = hit
			v.Events, v.Cycles = res.Kernel.Events, int64(res.TotalTime)
			if res.Failed() {
				return fmt.Errorf("%s/%s/%s: %s", cell.Workload, cell.Protocol.Name, cell.Template.Name, res.Errors[0])
			}
			return nil
		}()
	}
	if err != nil {
		v.Status = StatusFail
		v.Err = err.Error()
	}
	return v
}

// triage classifies and (when deterministic) minimizes a failing cell,
// persisting the minimized repro into the corpus and annotating the verdict.
func triage(pool *machine.Pool, cell Cell, v *Verdict, o Options, rerunCount *atomic.Int64) {
	// Triage bypasses the result cache outright: flake classification is
	// only meaningful against real re-executions. (Failed results are never
	// cached anyway; this also keeps a flaky-then-passing re-run from being
	// served memoized.)
	o.Cache = nil
	// Classification: a bit-deterministic simulation reproduces a real
	// protocol failure identically every time. Divergence across re-runs
	// means the process, not the protocol, is sick.
	v.Class = ClassDeterministic
	v.Reruns = o.Reruns
	for i := 0; i < o.Reruns; i++ {
		rerunCount.Add(1)
		rv := runCell(pool, cell, o)
		if rv.Status != v.Status || rv.Err != v.Err || rv.Events != v.Events || rv.Cycles != v.Cycles {
			v.Class = ClassFlaky
			return
		}
	}
	if o.Corpus == "" {
		return
	}

	spec := &Spec{
		Soak:     1,
		Workload: cell.Workload,
		Protocol: cell.Protocol.Name,
		Template: cell.Template.Name,
		Seed:     cell.Seed,
		Err:      v.Err,
	}
	var minF *faultinj.Config
	if cell.Workload == LitmusWorkload {
		// Joint minimization: fault rules first, then litmus ops, to a
		// fixpoint of both (rules-first reaches repros plain op-deletion
		// cannot).
		fails := func(s *workload.LitmusSpec, fc *faultinj.Config) bool {
			rerunCount.Add(1)
			_, _, err := workload.RunLitmus(s, cell.Protocol, fc, workload.LitmusRun{Canary: o.canary})
			return err != nil
		}
		spec.Litmus, minF = workload.MinimizeLitmusFaults(workload.GenLitmus(cell.Seed), faultsFor(cell), fails)
		v.MinOps = len(spec.Litmus.Ops)
	} else {
		scale, err := scaleOf(o.Scale)
		if err != nil {
			return
		}
		prog, err := workload.New(cell.Workload, scale)
		if err != nil {
			return
		}
		fails := func(fc *faultinj.Config) bool {
			rerunCount.Add(1)
			m := pool.Get(machineConfig(cell, o, fc))
			res := m.Run(prog)
			pool.Put(m)
			return res.Failed()
		}
		minF = workload.MinimizeFaultConfig(faultsFor(cell), fails)
		spec.Procs = o.Procs
		if spec.Procs == 0 {
			spec.Procs = 8
		}
		spec.CacheBytes = o.CacheBytes
		spec.Scale = o.Scale
	}
	spec.Faults = FaultSpecOf(minF)
	if minF != nil {
		v.MinRules = len(minF.Rules)
	}
	name := fmt.Sprintf("soak-%016x-%s-%s-%s.json", cell.Seed,
		sanitizeName(cell.Workload), sanitizeName(cell.Protocol.Name), sanitizeName(cell.Template.Name))
	path := filepath.Join(o.Corpus, name)
	if err := SaveSpec(spec, path); err == nil {
		v.Spec = path
	}
}

// params derives the campaign fingerprint parameters from the options.
func (o Options) params() Params {
	p := Params{
		Seed:   o.Seed,
		Reps:   o.Space.reps(),
		Procs:  o.Procs,
		Cache:  o.CacheBytes,
		Scale:  o.Scale,
		Shard:  o.Shard.String(),
		Canary: o.canary,
	}
	p.Workloads = append([]string(nil), o.Space.Workloads...)
	for _, pr := range o.Space.Protocols {
		p.Protocols = append(p.Protocols, pr.Name)
	}
	for _, t := range o.Space.Templates {
		p.Templates = append(p.Templates, FaultSpecOf(t.Faults))
		p.Names = append(p.Names, t.Name)
	}
	return p
}

// Aggregate folds a verdict set into the repo's standard results table:
// one row per workload × protocol × template group, in first-seen (cell
// index) order, plus a totals row.
func Aggregate(verdicts []Verdict) stats.Table {
	t := stats.Table{
		Title:  "Soak campaign",
		Header: []string{"workload", "protocol", "template", "cells", "ok", "fail", "events", "cycles", "cached"},
	}
	type agg struct {
		cells, ok, fail, cached int
		events                  uint64
		cycles                  int64
	}
	groups := make(map[[3]string]*agg)
	var order [][3]string
	var tot agg
	for _, v := range verdicts {
		k := [3]string{v.Workload, v.Protocol, v.Template}
		g := groups[k]
		if g == nil {
			g = &agg{}
			groups[k] = g
			order = append(order, k)
		}
		g.cells++
		tot.cells++
		if v.Status == StatusOK {
			g.ok++
			tot.ok++
		} else {
			g.fail++
			tot.fail++
		}
		if v.Cached {
			g.cached++
			tot.cached++
		}
		g.events += v.Events
		tot.events += v.Events
		g.cycles += v.Cycles
		tot.cycles += v.Cycles
	}
	row := func(name [3]string, g *agg) {
		t.AddRow(name[0], name[1], name[2],
			fmt.Sprint(g.cells), fmt.Sprint(g.ok), fmt.Sprint(g.fail),
			fmt.Sprint(g.events), fmt.Sprint(g.cycles), fmt.Sprint(g.cached))
	}
	for _, k := range order {
		row(k, groups[k])
	}
	if len(order) > 1 {
		row([3]string{"TOTAL", "", ""}, &tot)
	}
	return t
}
