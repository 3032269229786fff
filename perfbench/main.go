// Command perfbench is the repository's end-to-end benchmark: three closed
// loops, each with one client, that measure the simulator as its users run
// it. perfbench/README.md says why each workload exists and which end-to-end
// metric each per-layer metric should move.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: the run's
// correctness, its attempted and failed requests, and its metrics (the
// end-to-end ones untraced, the per-layer ones with --trace 1). The lines
// before it record the host and the same metrics as text.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 9

// workdir holds soak journals, spans and profiles, relative to the
// repository root the benchmark runs from.
var workdir = filepath.Join(".bench_build", "perfbench")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-grid, soak-sittings or popular-cached")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "measured seconds, rounded to whole passes")
	traced := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want paper-grid, soak-sittings or popular-cached)\n", *name)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := bench(sp, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run prints.
type report struct {
	workload  string
	seed      uint64
	traced    bool
	host      host
	notes     []string // text lines printed before the metrics
	problems  []string
	attempted int
	failed    int
	metrics   map[string]metric
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	h := r.host
	fmt.Fprintf(w, "perfbench workload=%s seed=%d trace=%t\n", r.workload, r.seed, r.traced)
	fmt.Fprintf(w, "host cpu=%q nproc=%d gomaxprocs=%d go=%s\n", h.cpu, h.nproc, h.gomaxprocs, h.goVersion)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "problem", p)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %v %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, r.metrics})
	fmt.Fprintln(w, string(out))
}

// per divides, reading 0 when nothing was counted.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measure runs whole passes. With passes > 0 it runs exactly that many;
// otherwise it stops at the pass boundary nearest the budget, once at least
// minRequests requests have completed.
func measure(l loop, budget time.Duration, minRequests, passes int, tr *tracer) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	for {
		passStart := time.Now()
		if err := l.pass(ph, tr); err != nil {
			return nil, err
		}
		ph.endPass()
		elapsed, last := time.Since(start), time.Since(passStart)
		if passes > 0 {
			if ph.passes >= passes {
				return ph, nil
			}
			continue
		}
		if ph.attempted >= minRequests && elapsed+last/2 >= budget {
			return ph, nil
		}
	}
}

func bench(sp spec, seed uint64, budget time.Duration, traced bool) (*report, error) {
	r := &report{workload: sp.name, seed: seed, traced: traced, host: readHost(), metrics: map[string]metric{}}

	var (
		l      loop
		err    error
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		l, err = sp.setup(seed, workdir)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	runtime.GC()
	ticks0, ticksOK := readTicks()

	if !traced {
		ph, err := measure(l, budget, sp.minRequests, 0, nil)
		if err != nil {
			return nil, err
		}
		ticks1, _ := readTicks()
		l.settle(ph)
		r.endToEnd(sp, ph, median(setups))
		r.hostNote(ticks0, ticks1, ticksOK)
		return r, nil
	}

	// Traced run: an untraced phase, then the same passes traced and
	// profiled; their difference is the tracing overhead.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a, err := measure(l, budget/2, 1, 0, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	b, err := measure(l, 0, 1, a.passes, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	ticks1, _ := readTicks()
	l.settle(b)
	stacks, err := readProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	base := filepath.Join(workdir, fmt.Sprintf("%s-seed%d", sp.name, seed))
	if err := tr.write(base + "-spans.jsonl"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+"-cpu.pb.gz", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	r.perLayer(a, b, &m0, &m1, tr, stacks)
	if len(sp.unobserved) > 0 {
		r.note("unobserved on %s (read 0): %s", sp.name, strings.Join(sp.unobserved, " "))
	}
	r.set("host.steal_frac", stealFrac(ticks0, ticks1), "fraction")
	r.hostNote(ticks0, ticks1, ticksOK)
	r.note("spans %s-spans.jsonl profile %s-cpu.pb.gz", base, base)
	return r, nil
}

func (r *report) hostNote(t0, t1 cpuTicks, ok bool) {
	if !ok {
		r.note("host steal_frac unavailable (no /proc/stat)")
		return
	}
	r.note("host steal_frac=%.4f over the measured phases", stealFrac(t0, t1))
}

// endToEnd fills the untraced run's metrics.
func (r *report) endToEnd(sp spec, ph *phase, setup float64) {
	r.problems, r.attempted, r.failed = ph.problems, ph.attempted, ph.failed
	secs := ph.reqTime.Seconds()
	pct, err := tailPercentile(sp.minRequests)
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
	tailMs, beyond, err := tail(ph.lat, pct)
	if err != nil {
		r.problems = append(r.problems, "request_ms_tail: "+err.Error())
	}
	rss, err := peakRSSMiB()
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
	r.note("run passes=%d requests=%d failed=%d request_s=%.3f", ph.passes, ph.attempted, ph.failed, secs)
	r.note("tail request_ms_tail is p%s over %d samples, %d beyond it", pctName(pct), len(ph.lat), beyond)
	sim := &ph.sim
	req := float64(sim.requests)
	r.set("setup_s", setup, "s")
	r.set("events_per_s", per(float64(ph.delivered), secs), "events/s")
	r.set("requests_per_s", per(float64(ph.attempted), secs), "requests/s")
	r.set("request_ms_p50", median(ph.lat), "ms")
	r.set("request_ms_tail", tailMs, "ms")
	r.set("peak_rss_mb", rss, "MiB")
	r.set("sim_cycles_per_request", per(float64(sim.cycles), req), "cycles")
	r.set("sim_msgs_per_request", per(float64(sim.msgs), req), "messages")
}

// perLayer fills the traced run's metrics: counts from the traced phase b,
// allocation counts from the untraced phase a, spans from tr and self time
// from the profile's stacks.
func (r *report) perLayer(a, b *phase, m0, m1 *runtime.MemStats, tr *tracer, stacks []stack) {
	r.problems = append(a.problems, b.problems...)
	r.attempted, r.failed = a.attempted+b.attempted, a.failed+b.failed
	sim := &b.sim
	req := float64(sim.requests)
	perReq := func(name string, v int64, unit string) { r.set(name, per(float64(v), req), unit) }

	byLayer, total, gcNs := fold(stacks)
	events := float64(b.executed)
	nsPerEvent := func(layer string) float64 { return per(float64(byLayer[layer]), events) }
	for _, l := range []string{"cpu", "event", "netsim", "proto", "cache", "faultinj", "workload", "machine"} {
		r.set(l+".self_ns_per_event", nsPerEvent(l), "ns")
	}
	r.set("cpu.handoff_ns_per_event", nsPerEvent(layerHandoff), "ns")
	r.set("soak.self_ms_per_request", per(float64(byLayer["soak"])/1e6, float64(b.attempted)), "ms")
	r.set("runtime.gc_share", per(float64(gcNs), float64(total)), "fraction")
	r.set("profile.unattributed_share", per(float64(byLayer[""]), float64(total)), "fraction")
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	line := fmt.Sprintf("profile %d samples, %.2f s CPU:", len(stacks), float64(total)/1e9)
	for _, l := range layers {
		name := l
		if name == "" {
			name = "(unattributed)"
		}
		line += fmt.Sprintf(" %s=%.3f", name, per(float64(byLayer[l]), float64(total)))
	}
	r.note("%s", line)

	perReq("cpu.ops_per_request", sim.ops, "count")
	perReq("cpu.inval_stall_cycles_per_request", sim.invalStall, "cycles")
	perReq("cpu.sync_cycles_per_request", sim.sync, "cycles")
	perReq("cpu.dsi_cycles_per_request", sim.dsi, "cycles")
	perReq("event.events_per_request", sim.executed, "count")
	r.set("event.peak_queue", float64(sim.peakQueue), "count")
	perReq("netsim.inval_msgs_per_request", sim.invalMsgs, "count")
	perReq("proto.misses_per_request", sim.misses, "count")
	perReq("proto.si_marked_per_request", sim.siMarked, "count")
	perReq("proto.tearoffs_per_request", sim.tearoffs, "count")
	perReq("proto.recovery_per_request", sim.recovery, "count")
	perReq("faultinj.injected_per_request", sim.injected, "count")

	aReq := float64(a.attempted)
	r.set("runtime.allocs_per_request", per(float64(m1.Mallocs-m0.Mallocs), aReq), "count")
	r.set("runtime.alloc_bytes_per_request", per(float64(m1.TotalAlloc-m0.TotalAlloc), aReq), "B")
	r.set("runtime.gc_cycles_per_request", per(float64(m1.NumGC-m0.NumGC), aReq), "count")

	r.set("simcache.hit_ratio", per(float64(sim.hits), req), "fraction")
	perReq("simcache.evictions_per_request", sim.evictions, "count")
	r.set("simcache.bytes", float64(sim.cacheBytes), "B")
	r.set("simcache.hit_us_p50", medianDur(tr.durations("dsisim.Run", "hit"))/1e3, "us")
	r.set("simcache.miss_ms_p50", medianDur(tr.durations("dsisim.Run", "miss"))/1e6, "ms")

	r.set("soak.failed_cells", float64(sim.failedCells), "count")
	r.set("soak.triage_reruns", float64(sim.triageReruns), "count")
	perReq("soak.journal_bytes_per_request", sim.journalBytes, "B")

	r.set("workload.new_ms", medianDur(tr.durations("workload.New", ""))/1e6, "ms")
	r.set("workload.setup_ms", medianDur(tr.durations("workload.setup", ""))/1e6, "ms")
	acquire, simulate, finish := machineSpans(tr)
	r.set("machine.acquire_ms", medianDur(acquire)/1e6, "ms")
	r.set("machine.simulate_ms", medianDur(simulate)/1e6, "ms")
	r.set("machine.finish_ms", medianDur(finish)/1e6, "ms")

	r.set("trace.overhead_frac", per(float64(b.reqTime), float64(a.reqTime))-1, "fraction")
	r.note("run passes=%d+%d requests=%d+%d failed=%d untraced_s=%.3f traced_s=%.3f",
		a.passes, b.passes, a.attempted, b.attempted, r.failed, a.reqTime.Seconds(), b.reqTime.Seconds())
}

// machineSpans splits each RunProgram span: simulate is its machine.simulate
// child, finish runs from the simulate span's end to the call's return, and
// acquire is the rest of the call's self time (pool acquire and reset before
// Setup, processor start after it).
func machineSpans(tr *tracer) (acquire, simulate, finish []time.Duration) {
	self := selfTimes(tr.spans)
	sims := map[int]span{}
	for _, s := range tr.spans {
		if s.Name == "machine.simulate" {
			sims[s.Parent] = s
		}
	}
	for _, s := range tr.spans {
		if s.Name != "dsisim.RunProgram" {
			continue
		}
		sim, ok := sims[s.ID]
		if !ok {
			continue
		}
		fin := s.End - sim.End
		simulate = append(simulate, sim.dur())
		finish = append(finish, fin)
		acquire = append(acquire, self[s.ID]-fin)
	}
	return acquire, simulate, finish
}

// medianDur is the median of ds in nanoseconds, 0 when there are none.
func medianDur(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return median(v)
}
