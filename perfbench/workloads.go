package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"dsisim"
	"dsisim/internal/experiments"
	"dsisim/internal/machine"
	"dsisim/internal/rng"
	"dsisim/internal/soak"
	"dsisim/internal/stats"
	"dsisim/internal/workload"
)

// A loop is one workload's client. Every pass of a run issues the same
// requests, so the simulated counts of one pass are exact for the run's
// seed, and a run measures whole passes.
type loop interface {
	// pass issues one pass of requests in order, each after the previous
	// one completed. tr is nil on untraced phases.
	pass(ph *phase, tr *tracer) error
	// settle runs once after the measured phases, outside any timing, and
	// completes the counts of ph.sim (a pass's counts) that the requests'
	// outputs do not carry. Outputs it finds wrong are ph's problems.
	settle(ph *phase)
}

// spec defines a workload. minRequests fixes the workload's tail
// percentile and is the fewest requests a run measures.
type spec struct {
	name        string
	minRequests int
	// unobserved lists the per-layer metrics the benchmark's spans cannot
	// see on this workload, because the calls they time happen inside one
	// public entry point; they read 0.
	unobserved []string
	// setup generates the workload's inputs from seed and validates them by
	// building each distinct program and machine once. The benchmark times
	// it as setup_s.
	setup func(seed uint64, workdir string) (loop, error)
}

// insideRun are the spans only paper-grid's hooked RunProgram records.
var insideRun = []string{"cpu.ops_per_request", "workload.new_ms", "workload.setup_ms",
	"machine.acquire_ms", "machine.simulate_ms", "machine.finish_ms"}

var specs = []spec{
	{name: "paper-grid", minRequests: len(gridCells(0)), setup: setupGrid},
	{name: "soak-sittings", minRequests: 40, setup: setupSittings, unobserved: insideRun},
	{name: "popular-cached", minRequests: streamLen, setup: setupPopular, unobserved: insideRun},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// simCounts are the simulated counts of one pass. Delivered counts cover
// every Result a request returned, cache hits included; the rest count work
// this process executed.
type simCounts struct {
	requests          int64
	events, cycles    int64 // delivered
	msgs              int64 // delivered
	executed          int64 // kernel events simulated here
	ops               int64 // kernel operations (traced paper-grid passes)
	invalStall, sync  int64 // modelled stall cycles
	dsi               int64
	peakQueue         int64
	invalMsgs, misses int64
	siMarked          int64
	tearoffs          int64
	recovery          int64
	injected          int64
	hits, evictions   int64 // result cache
	cacheBytes        int64
	failedCells       int64
	triageReruns      int64
	journalBytes      int64
}

// deliver counts a Result handed to the client.
func (c *simCounts) deliver(r *dsisim.Result) {
	c.events += int64(r.Kernel.Events)
	c.cycles += int64(r.TotalTime)
	c.msgs += r.Messages.Total()
}

// execute counts the layer work of a Result this process simulated.
func (c *simCounts) execute(r *dsisim.Result) {
	b := &r.Breakdown.Cycles
	c.invalStall += b[stats.ReadInval] + b[stats.WriteInval]
	c.sync += b[stats.Sync] + b[stats.SyncWB]
	c.dsi += b[stats.DSIStall]
	c.peakQueue = max(c.peakQueue, int64(r.Kernel.PeakQueue))
	c.invalMsgs += r.Messages.Invalidation()
	for _, cs := range r.Cache {
		c.misses += cs.ReadMisses + cs.WriteMisses + cs.Upgrades + cs.SwapMisses
	}
	for _, ds := range r.Dir {
		c.siMarked += ds.SIGrantsRead + ds.SIGrantsWrite
		c.tearoffs += ds.TearOffGrants
	}
	rec := experiments.RecoveryOf(*r)
	c.recovery += rec.Retries + rec.Timeouts + rec.Nacks + rec.Replays
	c.injected += rec.Injected
}

// phase accumulates one measured phase: host time of every request and the
// counts of each pass.
type phase struct {
	passes    int
	lat       []float64 // request latencies, ms, failed requests included
	reqTime   time.Duration
	attempted int
	failed    int
	delivered int64 // events delivered over all passes
	executed  int64 // events simulated over all passes
	sim       simCounts
	cur       simCounts // the pass in progress
	problems  []string
}

// request records one completed request. A non-empty problem marks it
// failed; it still counts as attempted and keeps its latency.
func (ph *phase) request(d time.Duration, problem string) {
	ph.attempted++
	ph.lat = append(ph.lat, float64(d)/1e6)
	ph.reqTime += d
	ph.cur.requests++
	if problem != "" {
		ph.failed++
		ph.problem(problem)
	}
}

// problem records a failed output check; the run then reports correct=false.
func (ph *phase) problem(format string, args ...any) {
	if len(ph.problems) < 20 {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

// endPass closes a pass: every pass of a run must repeat the first pass's
// simulated counts exactly.
func (ph *phase) endPass() {
	ph.delivered += ph.cur.events
	ph.executed += ph.cur.executed
	if ph.passes == 0 {
		ph.sim = ph.cur
	} else if ph.cur != ph.sim {
		ph.problem("pass %d counts %+v differ from pass 1 %+v", ph.passes+1, ph.cur, ph.sim)
	}
	ph.passes++
	ph.cur = simCounts{}
}

// sig is what a repeated request must reproduce exactly.
type sig struct{ events, cycles, msgs int64 }

func sigOf(r *dsisim.Result) sig {
	return sig{int64(r.Kernel.Events), int64(r.TotalTime), r.Messages.Total()}
}

// seen remembers the first output of every cell and checks repeats against
// it.
type seen map[string]sig

func (s seen) check(key string, got sig) string {
	if want, ok := s[key]; !ok {
		s[key] = got
	} else if got != want {
		return fmt.Sprintf("%s: got %+v, first run gave %+v", key, got, want)
	}
	return ""
}

// outcome is the problem a request's Result shows, if any.
func outcome(r *dsisim.Result, err error) string {
	if err != nil {
		return err.Error()
	}
	if r.Failed() {
		return fmt.Sprintf("%s: %s", r.Program, r.Errors[0])
	}
	return ""
}

// --- paper-grid ----------------------------------------------------------

var (
	gridProtocols = []dsisim.Protocol{dsisim.SC, dsisim.W, dsisim.V, dsisim.WDSI}
	gridCaches    = []int{32 << 10, 512 << 10} // Figure 3's two cache classes
)

type gridCell struct {
	workload   string
	protocol   dsisim.Protocol
	cacheBytes int
}

func (c gridCell) String() string {
	return fmt.Sprintf("%s/%s/%dKiB", c.workload, c.protocol, c.cacheBytes>>10)
}

// gridCells returns the 40 paper-scale cells in the order seed gives them.
func gridCells(seed uint64) []gridCell {
	var cells []gridCell
	for _, cb := range gridCaches {
		for _, w := range dsisim.PaperWorkloads() {
			for _, p := range gridProtocols {
				cells = append(cells, gridCell{w, p, cb})
			}
		}
	}
	out := make([]gridCell, len(cells))
	for i, j := range rng.New(seed).Perm(len(cells)) {
		out[i] = cells[j]
	}
	return out
}

type grid struct {
	cells []gridCell
	seen  seen
}

func setupGrid(seed uint64, _ string) (loop, error) {
	g := &grid{cells: gridCells(seed), seen: seen{}}
	for _, w := range dsisim.PaperWorkloads() {
		if _, err := workload.New(w, workload.ScalePaper); err != nil {
			return nil, err
		}
	}
	for _, cb := range gridCaches {
		machine.New(machine.Config{CacheBytes: cb})
	}
	return g, nil
}

func (g *grid) pass(ph *phase, tr *tracer) error {
	for _, c := range g.cells {
		cfg := dsisim.Config{Workload: c.workload, Protocol: c.protocol, CacheBytes: c.cacheBytes}
		var (
			res dsisim.Result
			err error
		)
		start := time.Now()
		if tr == nil {
			res, err = dsisim.Run(cfg)
		} else {
			res, err = g.traced(tr, cfg, &ph.cur)
		}
		d := time.Since(start)
		problem := outcome(&res, err)
		if problem == "" {
			problem = g.seen.check(c.String(), sigOf(&res))
		}
		ph.request(d, problem)
		ph.cur.deliver(&res)
		ph.cur.execute(&res)
		ph.cur.executed += int64(res.Kernel.Events)
	}
	return nil
}

// traced issues one grid request as workload.New plus RunProgram on a
// hooked program, recording request -> workload.New -> dsisim.RunProgram ->
// {workload.setup, machine.simulate}.
func (g *grid) traced(tr *tracer, cfg dsisim.Config, cur *simCounts) (dsisim.Result, error) {
	t0 := time.Now()
	prog, err := workload.New(cfg.Workload, cfg.Scale)
	t1 := time.Now()
	if err != nil {
		req := tr.add("request", 0, t0, t1)
		tr.add("workload.New", req, t0, t1)
		return dsisim.Result{}, err
	}
	hp := &hookedProgram{Program: prog}
	res, err := dsisim.RunProgram(cfg, hp)
	t2 := time.Now()
	req := tr.add("request", 0, t0, t2)
	tr.add("workload.New", req, t0, t1)
	run := tr.add("dsisim.RunProgram", req, t1, t2)
	if !hp.setupStart.IsZero() {
		tr.add("workload.setup", run, hp.setupStart, hp.setupEnd)
	}
	if s, e := hp.simulateSpan(); !s.IsZero() && !e.IsZero() {
		tr.add("machine.simulate", run, s, e)
	}
	cur.ops += hp.totalOps()
	return res, err
}

// --- soak-sittings -------------------------------------------------------

// sittingsPerPass is how many sittings, each with its own campaign seed, a
// pass runs.
const sittingsPerPass = 4

type sittings struct {
	space     soak.Space
	cells     int // one sitting: one breadth of the space
	campaigns []uint64
	tmp       string
	verdicts  map[uint64][]soak.Verdict // first verdicts of each campaign
}

func setupSittings(seed uint64, workdir string) (loop, error) {
	space := soak.DefaultSpace()
	s := &sittings{space: space, tmp: filepath.Join(workdir, "tmp"),
		cells:    len(space.Workloads) * len(space.Protocols) * len(space.Templates),
		verdicts: map[uint64][]soak.Verdict{}}
	for i := 0; i < sittingsPerPass; i++ {
		s.campaigns = append(s.campaigns, soak.SeedOf(seed, i))
	}
	if err := s.space.Validate(); err != nil {
		return nil, err
	}
	machine.New(machine.Config{Processors: 8})
	if err := os.MkdirAll(s.tmp, 0o755); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *sittings) pass(ph *phase, tr *tracer) error {
	for _, campaign := range s.campaigns {
		dir, err := os.MkdirTemp(s.tmp, "sitting-")
		if err != nil {
			return err
		}
		journal := filepath.Join(dir, "journal.jsonl")
		start := time.Now()
		rep, err := soak.Run(soak.Options{Space: s.space, Seed: campaign, MaxCells: s.cells,
			Workers: 1, Journal: journal})
		end := time.Now()
		if tr != nil {
			req := tr.add("request", 0, start, end)
			tr.add("soak.Run", req, start, end)
		}
		if fi, serr := os.Stat(journal); serr == nil {
			ph.cur.journalBytes += fi.Size()
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err != nil {
			ph.request(end.Sub(start), fmt.Sprintf("campaign %#x: %v", campaign, err))
			continue
		}
		ph.request(end.Sub(start), s.check(campaign, rep))
		ph.cur.failedCells += int64(rep.Failures)
		ph.cur.triageReruns += rep.Reruns
		for _, v := range rep.Verdicts {
			ph.cur.events += int64(v.Events)
			ph.cur.executed += int64(v.Events)
			ph.cur.cycles += v.Cycles
		}
	}
	return nil
}

// check requires a full sitting of OK verdicts that repeat the campaign's
// first sitting exactly.
func (s *sittings) check(campaign uint64, rep *soak.Report) string {
	if rep.Ran != s.cells || len(rep.Verdicts) != s.cells {
		return fmt.Sprintf("campaign %#x ran %d cells, want %d", campaign, rep.Ran, s.cells)
	}
	for _, v := range rep.Verdicts {
		if v.Status != soak.StatusOK {
			return fmt.Sprintf("campaign %#x cell %d (%s/%s/%s): %s %s", campaign, v.Cell,
				v.Workload, v.Protocol, v.Template, v.Status, v.Err)
		}
	}
	first, ok := s.verdicts[campaign]
	if !ok {
		s.verdicts[campaign] = rep.Verdicts
		return ""
	}
	for i, v := range rep.Verdicts {
		if v.Events != first[i].Events || v.Cycles != first[i].Cycles {
			return fmt.Sprintf("campaign %#x cell %d: %d events %d cycles, first sitting gave %d and %d",
				campaign, v.Cell, v.Events, v.Cycles, first[i].Events, first[i].Cycles)
		}
	}
	return ""
}

// settle replays every registry cell of the pass through dsisim.Run with the
// machine shape the soak engine builds, because verdicts carry only events
// and cycles. The replay must match each verdict; it adds the messages and
// layer counts of the registry cells (litmus cells run inside the engine
// only, so their messages are not counted).
func (s *sittings) settle(ph *phase) {
	for _, campaign := range s.campaigns {
		for _, v := range s.verdicts[campaign] {
			if v.Workload == soak.LitmusWorkload {
				continue
			}
			res, err := dsisim.Run(soakConfig(s.space.Cell(campaign, v.Cell)))
			if p := outcome(&res, err); p != "" {
				ph.problem("replay of campaign %#x cell %d: %s", campaign, v.Cell, p)
				continue
			}
			if int64(res.Kernel.Events) != int64(v.Events) || int64(res.TotalTime) != v.Cycles {
				ph.problem("replay of campaign %#x cell %d gave %d events %d cycles, the sitting %d and %d",
					campaign, v.Cell, res.Kernel.Events, res.TotalTime, v.Events, v.Cycles)
			}
			ph.sim.msgs += res.Messages.Total()
			ph.sim.execute(&res)
		}
	}
}

// soakConfig is the dsisim form of a soak registry cell: test scale on 8
// processors, the cell's seed, and its template's fault plan seeded from it.
func soakConfig(c soak.Cell) dsisim.Config {
	cfg := dsisim.Config{Workload: c.Workload, Scale: dsisim.ScaleTest,
		Protocol: dsisim.Protocol(c.Protocol.Name), Processors: 8, Seed: c.Seed | 1}
	if c.Template.Faults != nil {
		fc := *c.Template.Faults
		fc.Seed = soak.FaultSeedOf(c.Seed)
		cfg.Faults = &fc
	}
	return cfg
}

// --- popular-cached ------------------------------------------------------

const (
	// catalogueSeeds is how many seeds each (workload, protocol, template)
	// cell of the catalogue is offered at.
	catalogueSeeds = 2
	// streamLen is the number of requests in one pass.
	streamLen = 4096
	// cacheBudget holds about a quarter of the 216-cell catalogue: an
	// 8-processor Result takes about 3.3 KB in the cache.
	cacheBudget = 176 << 10
)

type popular struct {
	catalogue []dsisim.Config
	stream    []int // catalogue indexes, in request order
	seen      seen
}

// catalogue returns the soak-shaped cells: the nine registry workloads x
// SC/V/W+DSI x the soak fault templates x catalogueSeeds seeds. Workload
// varies fastest, so neighbouring popularity ranks hold different workloads.
func catalogue(seed uint64) []dsisim.Config {
	space := soak.DefaultSpace()
	var out []dsisim.Config
	for s := 0; s < catalogueSeeds; s++ {
		for _, t := range space.Templates {
			for _, p := range space.Protocols {
				for _, w := range space.Workloads {
					if w == soak.LitmusWorkload {
						continue
					}
					c := soak.Cell{Workload: w, Protocol: p, Template: t, Seed: soak.SeedOf(seed, len(out))}
					out = append(out, soakConfig(c))
				}
			}
		}
	}
	return out
}

// zipfStream returns n requests over items ranks whose counts follow zipf
// (s = 1) popularity exactly, rounded by largest remainder, in an order
// drawn from seed. Rank k is item k-1.
func zipfStream(items, n int, seed uint64) []int {
	var h float64
	for k := 1; k <= items; k++ {
		h += 1 / float64(k)
	}
	counts := make([]int, items)
	rem := make([]float64, items)
	left := n
	for i := range counts {
		want := float64(n) / (float64(i+1) * h)
		counts[i] = int(math.Floor(want))
		rem[i] = want - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- { // largest remainders first, lower rank on ties
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	stream := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			stream = append(stream, i)
		}
	}
	r := rng.New(seed)
	for i := len(stream) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		stream[i], stream[j] = stream[j], stream[i]
	}
	return stream
}

func setupPopular(seed uint64, _ string) (loop, error) {
	p := &popular{catalogue: catalogue(seed), seen: seen{}}
	p.stream = zipfStream(len(p.catalogue), streamLen, soak.SeedOf(seed, len(p.catalogue)))
	for _, w := range soak.DefaultSpace().Workloads {
		if w == soak.LitmusWorkload {
			continue
		}
		if _, err := workload.New(w, workload.ScaleTest); err != nil {
			return nil, err
		}
	}
	machine.New(machine.Config{Processors: 8})
	return p, nil
}

// pass replays the stream through a fresh cache, so every pass sees the same
// hits and evictions.
func (p *popular) pass(ph *phase, tr *tracer) error {
	cache := dsisim.NewResultCache(cacheBudget)
	for _, idx := range p.stream {
		cfg := p.catalogue[idx]
		cfg.Cache = cache
		hits := cache.Stats().Hits
		start := time.Now()
		res, err := dsisim.Run(cfg)
		end := time.Now()
		hit := cache.Stats().Hits > hits
		if tr != nil {
			req := tr.add("request", 0, start, end)
			run := tr.add("dsisim.Run", req, start, end)
			tag := "miss"
			if hit {
				tag = "hit"
			}
			tr.tag(run, tag)
		}
		problem := outcome(&res, err)
		if problem == "" {
			problem = p.seen.check(fmt.Sprintf("cell %d", idx), sigOf(&res))
		}
		ph.request(end.Sub(start), problem)
		ph.cur.deliver(&res)
		if !hit {
			ph.cur.execute(&res)
			ph.cur.executed += int64(res.Kernel.Events)
		}
	}
	st := cache.Stats()
	ph.cur.hits += st.Hits
	ph.cur.evictions += st.Evictions
	ph.cur.cacheBytes = st.Bytes
	return nil
}

func (g *grid) settle(*phase)    {}
func (p *popular) settle(*phase) {}
