// Package machine assembles the simulated multiprocessor: processors, cache
// controllers, directory controllers, network, and the hardware barrier,
// with the paper's timing parameters. It runs workload programs, clears
// statistics after initialization (as the paper does), and audits coherence
// invariants when the system quiesces.
package machine

import (
	"fmt"

	"dsisim/internal/cache"
	"dsisim/internal/check"
	"dsisim/internal/core"
	"dsisim/internal/cpu"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/faultinj"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/obs"
	"dsisim/internal/proto"
	"dsisim/internal/stats"
)

// Config parameterizes one simulated machine. The zero value is completed
// by Defaults: the paper's 32-processor system with a 100-cycle network.
type Config struct {
	Processors         int
	CacheBytes         int
	CacheAssoc         int
	NetworkLatency     event.Time
	Consistency        proto.Consistency
	WriteBufferEntries int
	// SharerLimit caps directory sharer pointers per block (0 = full map).
	SharerLimit int
	Policy      core.Policy
	Seed        uint64
	// MaxSteps bounds the event count (a livelock watchdog). 0 means the
	// package default.
	MaxSteps uint64
	// Sink, if set, receives one coherence event per protocol message, state
	// transition, self-invalidation, FIFO displacement, and tear-off grant,
	// and derives the Result's Blocks metrics. Nil costs nothing (see
	// DESIGN.md §6).
	Sink *obs.Sink
	// Faults, if set and non-empty, installs a deterministic fault-injection
	// plan on the network (internal/faultinj, docs/FAULTS.md): inter-node
	// messages may be dropped, duplicated, or delayed. Enabling faults also
	// enables the hardened protocol with proto.DefaultRetry's parameters.
	// Nil costs nothing.
	Faults *faultinj.Config
}

// barrierLatency is the hardware barrier's release latency, in cycles, as
// in the paper.
const barrierLatency event.Time = 100

// Defaults fills unset fields with the paper's configuration.
func (c Config) Defaults() Config {
	if c.Processors == 0 {
		c.Processors = 32
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 * 1024
	}
	if c.CacheAssoc == 0 {
		c.CacheAssoc = 4
	}
	if c.NetworkLatency == 0 {
		c.NetworkLatency = 100
	}
	if c.WriteBufferEntries == 0 {
		c.WriteBufferEntries = 16
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 2_000_000_000
	}
	if c.Policy.TearOff && c.Consistency != proto.WC {
		panic("machine: tear-off blocks require weak consistency (use SCTearOff for the SC variant)")
	}
	if c.Policy.SCTearOff && c.Consistency != proto.SC {
		panic("machine: SCTearOff applies to sequential consistency only")
	}
	return c
}

// Validate reports the first field of c, completed by Defaults, that no
// machine can be built with: a processor count outside 1 to
// directory.MaxNodes (the nodes a full-map sharer set can name), a cache
// geometry cache.Config.Validate refuses, or a negative network latency.
// Drivers check a configuration from outside the program with it before
// they build a machine; New itself assumes a valid one.
func (c Config) Validate() error {
	d := c.Defaults()
	if d.Processors < 1 || d.Processors > directory.MaxNodes {
		return fmt.Errorf("machine: Processors %d out of range: want 1 to %d, or 0 for %d",
			c.Processors, directory.MaxNodes, Config{}.Defaults().Processors)
	}
	if err := (cache.Config{SizeBytes: d.CacheBytes, Assoc: d.CacheAssoc}).Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if c.NetworkLatency < 0 {
		return fmt.Errorf("machine: NetworkLatency %d is negative", c.NetworkLatency)
	}
	return nil
}

// Program is a runnable workload: it allocates its address space in Setup
// and then runs Kernel on every processor. WarmupBarriers declares how many
// barrier episodes constitute initialization; statistics are cleared when
// that many have completed (0 measures everything).
type Program interface {
	Name() string
	Setup(m *Machine)
	Kernel(p *cpu.Proc)
	WarmupBarriers() int
}

// Result reports one simulation run. All quantities cover the measured
// region (after warm-up) unless stated otherwise.
type Result struct {
	Program   string
	ExecTime  event.Time // last processor halt minus warm-up end
	TotalTime event.Time // full run, including initialization
	Breakdown stats.Breakdown
	PerProc   []stats.Breakdown
	Messages  netsim.Counts
	Cache     []proto.CacheStats // full-run structural counters
	Dir       []proto.DirStats
	Barriers  int64
	// FIFODisplacements sums, across nodes, the self-invalidations forced
	// early by a finite FIFO mechanism (zero for flush-at-sync).
	FIFODisplacements int64
	// Kernel reports event-kernel counters for the full run (events
	// executed and scheduled, peak queue depth).
	Kernel stats.Kernel
	// Blocks holds per-block lifetime metrics derived by the coherence-event
	// sink; nil unless Config.Sink was set. Covers the full run.
	Blocks *obs.BlockMetrics
	// Faults reports fault-plan statistics for the full run (all zero when
	// Config.Faults was not set).
	Faults faultinj.Stats
	// Errors lists the run's failures in this order: controller failures,
	// an event panic or the watchdog's dump, kernel failures, processors
	// left parked, a warm-up that never ended, audit findings.
	Errors []string
}

// Failed reports whether the run recorded any protocol, kernel, audit, or
// deadlock errors.
func (r *Result) Failed() bool { return len(r.Errors) > 0 }

// Machine is one assembled system.
type Machine struct {
	cfg     Config
	q       *event.Queue
	net     *netsim.Network
	layout  *mem.Layout
	env     *proto.Env
	ccs     []*proto.CacheCtrl
	dcs     []*proto.DirCtrl
	barrier *cpu.Barrier
	plan    *faultinj.Plan
	fails   []string

	// procs and brks persist across Reset, so a pooled machine re-runs
	// without the per-processor construction cost; so does audit, the
	// end-of-run coherence audit's working storage.
	procs []*cpu.Proc
	brks  []*stats.Breakdown
	audit check.Scratch
}

// New assembles a machine from cfg (completed with Defaults). It builds the
// fixed structure, which Reset keeps, and then calls Reset to install the
// per-run wiring, so a fresh machine and a reused one are wired by the same
// code.
func New(cfg Config) *Machine {
	cfg = cfg.Defaults()
	m := &Machine{
		cfg:    cfg,
		q:      &event.Queue{},
		layout: mem.NewLayout(cfg.Processors),
	}
	m.net = netsim.New(m.q, netsim.Config{Nodes: cfg.Processors})
	m.env = &proto.Env{
		Q: m.q, Net: m.net, Layout: m.layout,
		CheckFail: func(format string, args ...any) {
			m.fails = append(m.fails, fmt.Sprintf("t=%d: ", m.q.Now())+fmt.Sprintf(format, args...))
		},
	}
	geo := cache.Config{SizeBytes: cfg.CacheBytes, Assoc: cfg.CacheAssoc}
	for i := 0; i < cfg.Processors; i++ {
		// The zero protocol config allocates no mechanism; Reset installs
		// the run's.
		m.ccs = append(m.ccs, proto.NewCacheCtrl(m.env, i, proto.Config{}, geo))
		m.dcs = append(m.dcs, proto.NewDirCtrl(m.env, i, proto.Config{}))
	}
	for i := 0; i < cfg.Processors; i++ {
		cc, dc := m.ccs[i], m.dcs[i]
		m.net.SetHandler(i, func(msg *netsim.Message) {
			switch msg.Kind {
			case netsim.Inv, netsim.Recall, netsim.DataS, netsim.DataX,
				netsim.AckX, netsim.FinalAck, netsim.Nack:
				cc.Handle(msg)
			case netsim.GetS, netsim.GetX, netsim.Upgrade, netsim.InvAck,
				netsim.InvAckData, netsim.RecallAck, netsim.WB, netsim.Repl,
				netsim.SInvNotify, netsim.SInvWB, netsim.NackHome:
				dc.Handle(msg)
			default:
				panic("machine: message kind with no controller route")
			}
		})
	}
	m.barrier = cpu.NewBarrier(m.q, cfg.Processors, barrierLatency)
	m.Reset(cfg)
	return m
}

// Reusable reports whether the machine's fixed structure (processor count
// and cache geometry) matches cfg, i.e. whether Reset(cfg) can reuse it.
// cfg must already be defaulted.
func (m *Machine) Reusable(cfg Config) bool {
	return cfg.Processors == m.cfg.Processors &&
		cfg.CacheBytes == m.cfg.CacheBytes &&
		cfg.CacheAssoc == m.cfg.CacheAssoc
}

// Reset rewinds the machine to a just-assembled state under cfg, keeping
// every structural allocation: the event queue's heap, the network's
// interfaces and delivery pool, the controllers' block tables and record
// free lists, the cache arrays, and the address-space allocator. What is
// cleared: all simulated time, traffic counters, cache and directory
// contents, memory images, transaction ids, statistics, and accumulated
// errors. The per-run wiring (sink, fault plan, retry parameters, protocol
// policy, network latency, seed) is derived from cfg here and only here: New
// ends by calling Reset, so a Reset machine is observationally identical to
// a fresh one — the kernel determinism goldens gate this.
//
// Reset panics if Reusable(cfg) is false (the structure cannot change).
func (m *Machine) Reset(cfg Config) {
	cfg = cfg.Defaults()
	if !m.Reusable(cfg) {
		panic("machine: Reset with an incompatible configuration (build a new machine)")
	}
	m.cfg = cfg
	m.q.Reset()
	m.layout.Reset()
	m.fails = m.fails[:0]
	m.plan = nil
	var retry *proto.RetryConfig
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		m.plan = faultinj.New(*cfg.Faults)
		// Faults without hardening would deadlock on the first lost message;
		// install the default recovery parameters.
		retry = proto.DefaultRetry(cfg.NetworkLatency)
	}
	m.net.Reset(netsim.Config{Nodes: cfg.Processors, Latency: cfg.NetworkLatency, Faults: m.plan})
	m.env.Reset(cfg.Sink)
	if cfg.Sink != nil {
		m.net.SetObserver(cfg.Sink)
	}
	pcfg := proto.Config{
		Consistency:        cfg.Consistency,
		WriteBufferEntries: cfg.WriteBufferEntries,
		SharerLimit:        cfg.SharerLimit,
		Policy:             cfg.Policy,
		Retry:              retry,
	}
	for i := 0; i < cfg.Processors; i++ {
		m.ccs[i].Reset(pcfg)
		m.dcs[i].Reset(pcfg)
	}
	m.barrier.Reset(barrierLatency)
}

// Config returns the machine's (defaulted) configuration.
func (m *Machine) Config() Config { return m.cfg }

// Layout returns the address-space allocator for Program.Setup.
func (m *Machine) Layout() *mem.Layout { return m.layout }

// CacheCtrl returns node's cache controller (for checkers and examples).
func (m *Machine) CacheCtrl(node int) *proto.CacheCtrl { return m.ccs[node] }

// DirCtrl returns node's directory controller.
func (m *Machine) DirCtrl(node int) *proto.DirCtrl { return m.dcs[node] }

// Run executes the program to completion and returns the measurements. A
// machine runs one program at a time and holds that run's state afterwards:
// call Reset before running it again, or run programs through the package's
// Run, which does.
func (m *Machine) Run(prog Program) Result {
	prog.Setup(m)

	n := m.cfg.Processors
	if m.procs == nil {
		m.procs = make([]*cpu.Proc, n)
		m.brks = make([]*stats.Breakdown, n)
		for i := 0; i < n; i++ {
			m.brks[i] = &stats.Breakdown{}
		}
	}
	brks, procs := m.brks, m.procs
	for i := 0; i < n; i++ {
		*brks[i] = stats.Breakdown{}
		if procs[i] == nil {
			procs[i] = cpu.New(i, n, m.q, m.ccs[i], m.barrier, brks[i], m.cfg.Seed)
		} else {
			procs[i].Reset(m.cfg.Seed)
		}
	}

	// Warm-up boundary: snapshot statistics when initialization ends.
	var (
		warmEnd   event.Time
		warmBrks  []stats.Breakdown
		warmMsgs  netsim.Counts
		warmTaken = prog.WarmupBarriers() == 0
	)
	if !warmTaken {
		want := int64(prog.WarmupBarriers())
		m.barrier.OnRelease = func(ep int64) {
			if warmTaken || ep < want {
				return
			}
			warmTaken = true
			warmEnd = m.q.Now()
			warmMsgs = m.net.Counts()
			warmBrks = make([]stats.Breakdown, n)
			for i, b := range brks {
				warmBrks[i] = *b
			}
		}
	}

	kernel := prog.Kernel // one method value, which allocates, for every processor
	for _, p := range procs {
		p.Start(kernel)
	}
	steps, panicked := m.simulate()
	// Release every kernel before reading processor state. A kernel the run
	// left blocked mid-operation (deadlock, expired budget, or a panicking
	// event) unwinds without halting; it still reports Done() == false below.
	for _, p := range procs {
		p.Release()
	}

	res := Result{Program: prog.Name(), TotalTime: m.q.Now(), Barriers: m.barrier.Episodes}
	res.Errors = append(res.Errors, m.fails...)
	res.Faults = m.net.FaultStats()
	if panicked != nil {
		res.Errors = append(res.Errors, panicked.Error())
		return res
	}
	if steps == m.cfg.MaxSteps && m.q.Len() > 0 {
		// Livelock watchdog: the event budget expired with work still
		// queued. Fail with the structured dump instead of expiring
		// silently.
		res.Errors = append(res.Errors, fmt.Sprintf("watchdog: %d events executed without quiescing", steps))
		res.Errors = append(res.Errors, m.diagnose()...)
		return res
	}
	if m.deadlocked() {
		// Deadlock watchdog: the queue drained but transactions are still
		// open — a message was lost and nothing will ever retry it (or the
		// retry cap was exceeded and the transaction gave up).
		res.Errors = append(res.Errors, "watchdog: event queue drained without quiescing (deadlock)")
		res.Errors = append(res.Errors, m.diagnose()...)
	}

	// Kernel failures lead the processors' errors: a processor left parked
	// is usually waiting on one that failed, and Errors[0] is what callers
	// report.
	var last event.Time
	var parked []string
	for i, p := range procs {
		if !p.Done() {
			parked = append(parked, fmt.Sprintf("proc %d deadlocked (%d parked at barrier)", i, m.barrier.Waiting()))
			continue
		}
		if p.Err() != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("proc %d: %v", i, p.Err()))
		}
		if p.HaltTime() > last {
			last = p.HaltTime()
		}
	}
	res.Errors = append(res.Errors, parked...)
	if !warmTaken {
		res.Errors = append(res.Errors, fmt.Sprintf("warm-up never ended: %d barrier episodes < %d",
			m.barrier.Episodes, prog.WarmupBarriers()))
	}

	res.ExecTime = last - warmEnd
	res.Messages = m.net.Counts().Sub(warmMsgs)
	res.PerProc = make([]stats.Breakdown, n)
	for i, b := range brks {
		pb := *b
		if warmBrks != nil {
			for c := range pb.Cycles {
				pb.Cycles[c] -= warmBrks[i].Cycles[c]
			}
		}
		res.PerProc[i] = pb
		res.Breakdown.Merge(&pb)
	}
	for i := 0; i < n; i++ {
		res.Cache = append(res.Cache, m.ccs[i].Stats())
		res.Dir = append(res.Dir, m.dcs[i].Stats())
		res.FIFODisplacements += m.ccs[i].FIFODisplacements()
	}
	qs := m.q.Stats()
	res.Kernel = stats.Kernel{
		Events:    qs.Executed,
		Scheduled: qs.Scheduled,
		PeakQueue: qs.PeakLen,
	}
	res.Blocks = m.cfg.Sink.Metrics() // nil-safe: nil sink, nil metrics
	for _, err := range check.Audit(m.ccs, m.dcs, m.net.InFlight(), &m.audit) {
		res.Errors = append(res.Errors, "audit: "+err.Error())
	}
	return res
}

// simulate runs the event loop on the calling goroutine until the queue
// drains or MaxSteps events have run, and returns the number of events run.
// An event that panics ends the run; its panic comes back as the error.
func (m *Machine) simulate() (steps uint64, panicked error) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Errorf("t=%d: event panicked: %v", m.q.Now(), r)
		}
	}()
	return m.q.RunSteps(m.cfg.MaxSteps), nil
}

// deadlocked reports whether the machine stopped with coherence work still
// open: outstanding cache misses, busy directory blocks, or messages in
// flight.
func (m *Machine) deadlocked() bool {
	if m.net.InFlight() != 0 {
		return true
	}
	for _, cc := range m.ccs {
		if cc.Outstanding() != 0 {
			return true
		}
	}
	for _, dc := range m.dcs {
		if dc.BusyBlocks() != 0 {
			return true
		}
	}
	return false
}

// diagnoseLimit caps each section of the watchdog dump so a wedged run with
// thousands of open transactions stays readable.
const diagnoseLimit = 24

// diagnose builds the liveness watchdog's structured dump: the stuck
// cache-side transactions, the stuck directory transactions, and the tail
// of the coherence event stream when a sink is attached.
func (m *Machine) diagnose() []string {
	out := []string{fmt.Sprintf("liveness: queue len %d, %d messages in flight", m.q.Len(), m.net.InFlight())}
	lines := 0
	for n, cc := range m.ccs {
		for _, om := range cc.DumpOutstanding() {
			if lines++; lines > diagnoseLimit {
				break
			}
			out = append(out, fmt.Sprintf("liveness: node %d stuck %s for %#x txn %d (%d retries, started t=%d)",
				n, om.Op, uint64(om.Addr), om.Txn, om.Retries, om.Start))
		}
	}
	if lines > diagnoseLimit {
		out = append(out, fmt.Sprintf("liveness: ... and %d more stuck cache transactions", lines-diagnoseLimit))
	}
	lines = 0
	for n, dc := range m.dcs {
		for _, bt := range dc.DumpBusy() {
			if lines++; lines > diagnoseLimit {
				break
			}
			out = append(out, fmt.Sprintf("liveness: home %d stuck txn %d (%v for %#x from node %d) awaiting %v via %v (%d retries, %d queued)",
				n, bt.Txn, bt.Req, uint64(bt.Addr), bt.From, bt.Pending, bt.Action, bt.Retries, bt.Queued))
		}
	}
	if lines > diagnoseLimit {
		out = append(out, fmt.Sprintf("liveness: ... and %d more stuck directory transactions", lines-diagnoseLimit))
	}
	if sk := m.cfg.Sink; sk != nil {
		for _, e := range sk.Tail(16) {
			out = append(out, "liveness: recent "+e.String())
		}
	}
	return out
}
