package soak

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsisim/internal/fanout"
	"dsisim/internal/faultinj"
	"dsisim/internal/simcache"
	"dsisim/internal/stats"
	"dsisim/internal/workload"
)

// Options configures one campaign sitting. Zero values mean: default space,
// seed 0, unsharded, run every owned cell, no wall-clock bound, GOMAXPROCS
// workers, no journal, no corpus, no heartbeat. Every registry cell runs on
// soak's one machine shape (see Spec.run), and triage re-runs each failure
// twice.
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

	Stop      <-chan struct{} // graceful drain: finish in-flight cells, checkpoint, exit
	Heartbeat time.Duration   // period of the progress line on stderr (0 = silent)

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

// checkBounds rejects negative sitting bounds, which would otherwise fall
// into the zero values' meanings: every owned cell, GOMAXPROCS workers, no
// wall-clock bound.
func (o *Options) checkBounds() error {
	switch {
	case o.MaxCells < 0:
		return fmt.Errorf("soak: MaxCells %d is negative (0 runs every owned cell)", o.MaxCells)
	case o.Workers < 0:
		return fmt.Errorf("soak: Workers %d is negative (0 means GOMAXPROCS)", o.Workers)
	case o.Duration < 0:
		return fmt.Errorf("soak: Duration %v is negative (0 means no bound)", o.Duration)
	}
	return nil
}

// Report summarizes one campaign sitting.
type Report struct {
	Owned     int   // cells this shard owns
	Recovered int   // verdicts recovered from the journal on resume
	Ran       int   // cells executed this sitting
	Drained   int   // owned cells left unrun by a stop/duration/MaxCells bound
	Failures  int   // failing verdicts across the union
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
	if err := o.checkBounds(); err != nil {
		return nil, err
	}
	if len(o.Space.Workloads) == 0 {
		o.Space = DefaultSpace()
	}
	if err := o.Space.Validate(); err != nil {
		return nil, err
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
	// MaxCells, in index order.
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
					line := fmt.Sprintf("soak: %d/%d cells this sitting (%d recovered), %d fail, %d triage reruns, %s elapsed",
						done.Load(), len(todo), rep.Recovered, failed.Load(),
						reruns.Load(), time.Since(start).Round(time.Second))
					if o.Cache != nil {
						cs := o.Cache.Stats()
						line += fmt.Sprintf(", cache %dh/%dm/%de/%dr %dKB",
							cs.Hits, cs.Misses, cs.Evictions, cs.Refused, cs.Bytes/1024)
					}
					fmt.Fprintln(os.Stderr, line)
				}
			}
		}()
	}

	fanout.Run(len(todo), o.Workers, func(item int) {
		if stopped() {
			return
		}
		v, spec := runCell(o.Space.Cell(o.Seed, todo[item]), &o)
		if v.Status == StatusFail {
			triage(spec, &v, &o, &reruns)
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

// runCell runs one cell through its oracles and returns its verdict
// (before triage) with the spec it ran.
func runCell(cell Cell, o *Options) (Verdict, *Spec) {
	spec := specOf(cell)
	v := Verdict{
		Cell:     cell.Index,
		Workload: cell.Workload,
		Protocol: cell.Protocol.Name,
		Template: cell.Template.Name,
		Seed:     cell.Seed,
		Status:   StatusOK,
	}
	var err error
	v.Events, v.Cycles, v.Cached, err = spec.run(o.Cache, nil, o.canary)
	if err != nil {
		v.Status, v.Err = StatusFail, err.Error()
	}
	return v, spec
}

// triageReruns is how many times triage re-runs a failing cell to tell a
// deterministic failure from a flaky one.
const triageReruns = 2

// triage classifies and (when deterministic) minimizes a failing cell,
// persisting the minimized repro into the corpus and annotating the verdict.
// Every re-run and minimization attempt bypasses the result cache: flake
// classification is only meaningful against real re-executions.
func triage(spec *Spec, v *Verdict, o *Options, rerunCount *atomic.Int64) {
	// Classification: a bit-deterministic simulation reproduces a real
	// protocol failure identically every time. Divergence across re-runs
	// means the process, not the protocol, is sick.
	v.Class = ClassDeterministic
	for i := 0; i < triageReruns; i++ {
		rerunCount.Add(1)
		events, cycles, _, err := spec.run(nil, nil, o.canary)
		if err == nil || err.Error() != v.Err || events != v.Events || cycles != v.Cycles {
			v.Class = ClassFlaky
			return
		}
	}
	if o.Corpus == "" {
		return
	}

	// Minimization shrinks the fault plan and, for a litmus cell, the
	// program too: fault rules first, then ops, to a fixpoint of both
	// (rules-first reaches repros plain op-deletion cannot).
	fails := func(l *workload.LitmusSpec, fc *faultinj.Config) bool {
		rerunCount.Add(1)
		cand := *spec
		cand.Litmus, cand.Faults = l, fc
		_, _, _, err := cand.run(nil, nil, o.canary)
		return err != nil
	}
	if spec.Litmus != nil {
		spec.Litmus, spec.Faults = workload.MinimizeLitmusFaults(spec.Litmus, spec.Faults, fails)
		v.MinOps = len(spec.Litmus.Ops)
	} else {
		spec.Faults = workload.MinimizeFaultConfig(spec.Faults, func(fc *faultinj.Config) bool { return fails(nil, fc) })
	}
	if spec.Faults != nil {
		v.MinRules = len(spec.Faults.Rules)
	}
	spec.Err = v.Err
	name := fmt.Sprintf("soak-%016x-%s-%s-%s.json", spec.Seed,
		sanitizeName(spec.Workload), sanitizeName(spec.Protocol), sanitizeName(spec.Template))
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
		Shard:  o.Shard.String(),
		Canary: o.canary,
	}
	p.Workloads = append([]string(nil), o.Space.Workloads...)
	for _, pr := range o.Space.Protocols {
		p.Protocols = append(p.Protocols, pr.Name)
	}
	for _, t := range o.Space.Templates {
		p.Templates = append(p.Templates, t.Faults)
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
