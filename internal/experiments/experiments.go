// Package experiments defines the paper's evaluation: one driver per table
// and figure of §5, each running the required (workload × protocol × cache
// class × network latency) grid and rendering the same rows the paper
// reports. cmd/dsibench and the repository's bench_test.go are thin
// wrappers over this package.
package experiments

import (
	"errors"
	"fmt"

	"dsisim/internal/core"
	"dsisim/internal/event"
	"dsisim/internal/fanout"
	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/proto"
	"dsisim/internal/simcache"
	"dsisim/internal/stats"
	"dsisim/internal/workload"
)

// CacheClass stands in for the paper's 256 KB / 2 MB cache pair. Input
// sizes are scaled down (DESIGN.md §4), so the classes are scaled with
// them: what matters is which side of each workload's working set the
// cache lands on (EXPERIMENTS.md records the calibration).
type CacheClass int

const (
	// SmallCache corresponds to the paper's 256 KB configuration.
	SmallCache CacheClass = iota
	// LargeCache corresponds to the paper's 2 MB configuration.
	LargeCache
)

func (c CacheClass) String() string {
	if c == SmallCache {
		return "256KB-class"
	}
	return "2MB-class"
}

// Bytes returns the simulated cache capacity of the class.
func (c CacheClass) Bytes() int {
	if c == SmallCache {
		return 32 * 1024
	}
	return 512 * 1024
}

// Label is a protocol label as used in the paper's figures.
type Label string

// The protocol labels of Figures 3-6.
const (
	SC    Label = "SC"
	W     Label = "W"
	S     Label = "S"
	V     Label = "V"
	VFIFO Label = "V-FIFO"
	WDSI  Label = "W+DSI"
)

// Config converts a label into a machine configuration through the
// protocol table (proto.LabelOf). The labels are compile-time constants, so
// an unknown one is a programming error.
func (l Label) Config() (proto.Consistency, core.Policy) {
	pl, err := proto.LabelOf(string(l))
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return pl.Consistency, pl.Policy
}

// Options sets the grid-wide machine parameters.
type Options struct {
	Processors int            // default 32
	Scale      workload.Scale // default ScalePaper
	Latency    event.Time     // default 100
	Class      CacheClass
	// Faults, if set and non-trivial, installs the deterministic
	// fault-injection plan on every cell's interconnect (enabling the
	// hardened protocol), so grids can measure recovery overhead; see
	// RecoveryTable.
	Faults *faultinj.Config
	// Cache, if set, memoizes each cell's Result under its canonical
	// simcache key: a cell already simulated with identical parameters is
	// served from memory, bit-identical to the computed run (the simulator
	// is deterministic, so the key fully determines the Result). Repeated
	// grids — the service north-star's popular configurations — then cost
	// one simulation each. nil runs every cell.
	Cache *simcache.Cache
}

func (o Options) defaults() Options {
	if o.Processors == 0 {
		o.Processors = 32
	}
	if o.Latency == 0 {
		o.Latency = 100
	}
	return o
}

// machineConfig builds the machine every cell of o runs on, under one
// consistency model and DSI policy (a label's, through Label.Config). o must
// already carry its defaults.
func (o Options) machineConfig(cons proto.Consistency, pol core.Policy) machine.Config {
	return machine.Config{
		Processors:     o.Processors,
		CacheBytes:     o.Class.Bytes(),
		CacheAssoc:     4,
		NetworkLatency: o.Latency,
		Consistency:    cons,
		Policy:         pol,
		Faults:         o.Faults,
	}
}

// RunOne simulates one (workload, protocol) cell.
func RunOne(name string, label Label, o Options) (machine.Result, error) {
	o = o.defaults()
	return runCell(name, o.machineConfig(label.Config()), o)
}

// runCell simulates workload name on cfg, memoized in o.Cache. Errors name
// the cell's protocol as the cache key does (proto.NameOf).
func runCell(name string, cfg machine.Config, o Options) (machine.Result, error) {
	res, _, err := o.Cache.Run(name, o.Scale, cfg)
	if err != nil {
		return res, err
	}
	if res.Failed() {
		return res, fmt.Errorf("%s/%s (%v, %d-cycle net): %s", name,
			proto.NameOf(cfg.Consistency, cfg.Policy), o.Class, o.Latency, res.Errors[0])
	}
	return res, nil
}

// Matrix holds a (workload × protocol) grid of results for one Options.
type Matrix struct {
	Opt       Options
	Workloads []string
	Labels    []Label
	cells     map[string]map[Label]machine.Result
}

// RunMatrix simulates the full grid. Cells are independent simulations
// (each builds its own workload instance and runs it on a machine of its
// own for the length of the run, through machine.Run), so they run
// concurrently through internal/fanout: each worker claims the next
// unclaimed cell, so a few slow cells (large workload × expensive protocol)
// hold back only their own workers. Each cell remains bit-deterministic and
// writes only its own slot, so the grid's results are independent of
// completion order.
func RunMatrix(workloads []string, labels []Label, o Options) (*Matrix, error) {
	o = o.defaults()
	m := &Matrix{Opt: o, Workloads: workloads, Labels: labels,
		cells: make(map[string]map[Label]machine.Result)}
	type cell struct {
		w string
		l Label
	}
	var todo []cell
	for _, w := range workloads {
		for _, l := range labels {
			todo = append(todo, cell{w, l})
		}
	}
	// One slot per cell, in grid order.
	results := make([]machine.Result, len(todo))
	errs := make([]error, len(todo))
	fanout.Run(len(todo), 0, func(i int) {
		results[i], errs[i] = RunOne(todo[i].w, todo[i].l, o)
	})
	for _, w := range workloads {
		m.cells[w] = make(map[Label]machine.Result)
	}
	for i, c := range todo {
		m.cells[c.w][c.l] = results[i]
	}
	// Report every failed cell, not just the first: a grid-wide pathology
	// (one workload failing under every protocol, say) should be visible in
	// one error. The matrix is still returned so callers can render the
	// cells that did succeed; rendering skips failed cells.
	if err := errors.Join(errs...); err != nil {
		return m, err
	}
	return m, nil
}

// ok reports whether the (w, l) cell ran and succeeded.
func (m *Matrix) ok(w string, l Label) bool {
	res, present := m.cells[w][l]
	return present && !res.Failed()
}

// Get returns the cell for (workload, label).
func (m *Matrix) Get(w string, l Label) machine.Result { return m.cells[w][l] }

// Normalized returns label's execution time divided by base's, or 0 when
// either cell failed.
func (m *Matrix) Normalized(w string, l, base Label) float64 {
	if !m.ok(w, l) || !m.ok(w, base) {
		return 0
	}
	b := m.cells[w][base].ExecTime
	if b == 0 {
		return 0
	}
	return float64(m.cells[w][l].ExecTime) / float64(b)
}

// Improvement returns the percent execution-time reduction of l vs base.
func (m *Matrix) Improvement(w string, l, base Label) float64 {
	return 1 - m.Normalized(w, l, base)
}

// Table renders normalized execution times against base.
func (m *Matrix) Table(title string, base Label) stats.Table {
	t := stats.Table{Title: title, Header: []string{"benchmark"}}
	for _, l := range m.Labels {
		t.Header = append(t.Header, string(l))
	}
	for _, w := range m.Workloads {
		row := []string{w}
		for _, l := range m.Labels {
			if !m.ok(w, l) {
				row = append(row, "-") // cell's simulation failed
				continue
			}
			row = append(row, stats.Norm(m.Normalized(w, l, base)))
		}
		t.AddRow(row...)
	}
	return t
}

// Recovery aggregates one run's retry/NACK/fault-recovery counters across
// all nodes — the robustness story of a cell in one row. All fields are
// zero for a run without faults and without the hardened protocol.
type Recovery struct {
	Timeouts int64 // retry timers fired (cache + directory side)
	Retries  int64 // requests, probes, and Inv/Recalls retransmitted
	Nacks    int64 // requests refused by an overloaded directory
	Replays  int64 // grants re-sent from directory state for lost replies
	Strays   int64 // duplicate/stale messages deduplicated or tolerated
	Injected int64 // messages the fault plan dropped, duplicated, or delayed
}

// RecoveryOf sums res's per-node recovery counters.
func RecoveryOf(res machine.Result) Recovery {
	var r Recovery
	for _, cs := range res.Cache {
		r.Timeouts += cs.Timeouts
		r.Retries += cs.Retries
		r.Nacks += cs.NacksRecv
		r.Strays += cs.StraysIgnored
	}
	for _, ds := range res.Dir {
		r.Timeouts += ds.Timeouts
		r.Retries += ds.RetriesSent
		r.Replays += ds.Replays
		r.Strays += ds.StrayAcks + ds.DupRequests
	}
	r.Injected = res.Faults.Dropped + res.Faults.Duplicated + res.Faults.Delayed
	return r
}

// RecoveryTable renders the grid's fault-recovery counters: one row per
// (workload, protocol) cell. For a fault-free grid every count is zero —
// the table then documents that no recovery machinery engaged.
func (m *Matrix) RecoveryTable(title string) stats.Table {
	t := stats.Table{
		Title:  title,
		Header: []string{"benchmark", "protocol", "faults", "timeouts", "retries", "nacks", "replays", "strays"},
	}
	for _, w := range m.Workloads {
		for _, l := range m.Labels {
			if !m.ok(w, l) {
				t.AddRow(w, string(l), "-", "-", "-", "-", "-", "-")
				continue
			}
			r := RecoveryOf(m.cells[w][l])
			t.AddRow(w, string(l),
				fmt.Sprint(r.Injected), fmt.Sprint(r.Timeouts), fmt.Sprint(r.Retries),
				fmt.Sprint(r.Nacks), fmt.Sprint(r.Replays), fmt.Sprint(r.Strays))
		}
	}
	return t
}

// chartSegments maps breakdown categories to stacked-bar runes, grouping
// the paper's Figure 3 legend: computation, synchronization, read stalls,
// write stalls, write-buffer stalls, and self-invalidation time.
var chartSegments = []struct {
	r    rune
	name string
	cats []stats.Category
}{
	{'#', "compute", []stats.Category{stats.Compute}},
	{'%', "synch", []stats.Category{stats.Sync}},
	{'-', "read stall", []stats.Category{stats.ReadInval, stats.ReadOther}},
	{'=', "write stall", []stats.Category{stats.WriteInval, stats.WriteOther}},
	{'~', "write buffer", []stats.Category{stats.SyncWB, stats.ReadWB, stats.WBFull}},
	{'!', "dsi", []stats.Category{stats.DSIStall}},
}

// Chart renders the matrix as grouped stacked bars — the text analogue of
// the paper's Figure 3/4/5 plots. Bar length is execution time normalized
// to base; segments show where the cycles went.
func (m *Matrix) Chart(title string, base Label) stats.BarChart {
	c := stats.BarChart{Title: title, Width: 50, Scale: 1.0}
	for _, seg := range chartSegments {
		c.Legend = append(c.Legend, stats.LegendEntry{Rune: seg.r, Name: seg.name})
	}
	for _, w := range m.Workloads {
		g := stats.BarGroup{Label: w}
		for _, l := range m.Labels {
			if !m.ok(w, l) {
				continue // failed cell: no bar
			}
			res := m.cells[w][l]
			total := float64(res.Breakdown.Total())
			bar := stats.Bar{Label: string(l), Value: m.Normalized(w, l, base)}
			if total > 0 {
				for _, seg := range chartSegments {
					var cyc int64
					for _, cat := range seg.cats {
						cyc += res.Breakdown.Cycles[cat]
					}
					if cyc > 0 {
						bar.Segments = append(bar.Segments, stats.Segment{Rune: seg.r, Frac: float64(cyc) / total})
					}
				}
			}
			g.Bars = append(g.Bars, bar)
		}
		c.Groups = append(c.Groups, g)
	}
	return c
}

// BreakdownTable renders the per-category execution-time shares of each
// protocol for one workload — the stacked bars of Figure 3 as rows.
func (m *Matrix) BreakdownTable(w string) stats.Table {
	t := stats.Table{
		Title:  fmt.Sprintf("%s: cycle breakdown (fraction of SC total)", w),
		Header: []string{"category"},
	}
	for _, l := range m.Labels {
		t.Header = append(t.Header, string(l))
	}
	bb := m.cells[w][m.Labels[0]].Breakdown
	base := float64(bb.Total())
	if base == 0 {
		base = 1
	}
	for _, c := range stats.Categories() {
		row := []string{c.String()}
		nonzero := false
		for _, l := range m.Labels {
			if !m.ok(w, l) {
				row = append(row, "-")
				continue
			}
			v := float64(m.cells[w][l].Breakdown.Cycles[c]) / base
			if v != 0 {
				nonzero = true
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		if nonzero {
			t.AddRow(row...)
		}
	}
	return t
}
