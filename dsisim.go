// Package dsisim is a from-scratch reproduction of "Dynamic
// Self-Invalidation: Reducing Coherence Overhead in Shared-Memory
// Multiprocessors" (Lebeck & Wood, ISCA 1995): an execution-driven
// simulator of a directory-based write-invalidate multiprocessor with the
// paper's DSI extensions — identification by additional directory states or
// 4-bit version numbers, self-invalidation by FIFO buffer or
// flush-at-synchronization, and untracked tear-off blocks under weak
// consistency.
//
// The package is the public facade: configure a simulated machine, pick a
// workload (the paper's five applications are built in) or supply your own
// kernel, and Run it:
//
//	res, err := dsisim.Run(dsisim.Config{
//	    Workload: "em3d",
//	    Protocol: dsisim.V, // SC + DSI with version numbers
//	})
//
// Protocol labels follow the paper's figures: SC (base sequential
// consistency), W (weak consistency with a 16-entry coalescing write
// buffer), S (SC + DSI using additional states), V (SC + DSI using version
// numbers), VFIFO (V with a 64-entry FIFO instead of flush-at-sync), and
// WDSI (W + DSI with tear-off blocks).
//
// Any run can additionally record a protocol-level coherence trace: attach
// a CoherenceSink via Config.Sink and the simulation emits one structured
// event per protocol message, state transition, and self-invalidation,
// derives per-block lifetime metrics onto Result.Blocks, and exports the
// stream as Chrome trace_event JSON (CoherenceSink.WriteChrome) or
// filtered text (CoherenceSink.WriteText). A nil sink costs nothing and
// an attached sink never changes simulated timing; docs/OBSERVABILITY.md
// documents the event schema.
package dsisim

import (
	"fmt"

	"dsisim/internal/cpu"
	"dsisim/internal/event"
	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/obs"
	"dsisim/internal/proto"
	"dsisim/internal/simcache"
	"dsisim/internal/stats"
	"dsisim/internal/workload"
)

// Protocol selects one of the paper's protocol configurations.
type Protocol string

// The protocols evaluated in the paper, labeled as in its figures.
const (
	// SC is the base sequentially consistent full-map protocol.
	SC Protocol = "SC"
	// W is weak consistency with a 16-entry coalescing write buffer.
	W Protocol = "W"
	// S is SC plus DSI identified by additional directory states,
	// self-invalidating at synchronization operations.
	S Protocol = "S"
	// V is SC plus DSI identified by 4-bit version numbers,
	// self-invalidating at synchronization operations.
	V Protocol = "V"
	// VFIFO is V with the 64-entry FIFO self-invalidation mechanism.
	VFIFO Protocol = "V-FIFO"
	// SFIFO is S with the 64-entry FIFO self-invalidation mechanism.
	SFIFO Protocol = "S-FIFO"
	// WDSI is W plus DSI (version numbers) with tear-off blocks.
	WDSI Protocol = "W+DSI"
	// WDSIStates is W plus DSI (additional states) with tear-off blocks.
	WDSIStates Protocol = "W+DSI-S"
	// VTearOff is V with sequentially consistent tear-off blocks (§3.3: at
	// most one per cache, invalidated at the next miss).
	VTearOff Protocol = "V-TO"
	// VHistory is SC with cache-side identification only (§3.1): each cache
	// marks re-fetched blocks from its own invalidation history; the
	// directory runs the unmodified base protocol.
	VHistory Protocol = "HIST"
	// VNaive is V with the naive sequential-scan flush (the §4.2 strawman
	// the flash-clear/linked-list circuits improve on).
	VNaive Protocol = "V-naive"
	// MIG is SC with the adaptive migratory-sharing optimization (the
	// related-work baseline the paper calls complementary): reads of
	// migrating blocks are granted exclusive.
	MIG Protocol = "MIG"
	// MIGV combines migratory detection with V — the complementary
	// composition §2 of the paper suggests.
	MIGV Protocol = "MIG+V"
)

// Protocols returns every defined protocol label.
func Protocols() []Protocol {
	var out []Protocol
	for _, l := range proto.Labels() {
		out = append(out, Protocol(l.Name))
	}
	return out
}

// FIFOEntries is the self-invalidation FIFO capacity the paper evaluates.
const FIFOEntries = proto.FIFOEntries

// Scale selects workload input sizes.
type Scale = workload.Scale

// Workload scales.
const (
	// ScalePaper is the evaluation size (scaled from the paper's inputs).
	ScalePaper = workload.ScalePaper
	// ScaleTest is a small size for fast tests.
	ScaleTest = workload.ScaleTest
)

// Config describes one simulation.
type Config struct {
	// Workload names a built-in workload (see Workloads). Leave empty when
	// calling RunProgram with a custom program.
	Workload string
	// Scale selects the workload input size (default ScalePaper).
	Scale Scale
	// Protocol is the paper-style label (default SC).
	Protocol Protocol
	// Processors defaults to the paper's 32.
	Processors int
	// CacheBytes defaults to 256 KiB; CacheAssoc to 4-way.
	CacheBytes int
	CacheAssoc int
	// NetworkLatency defaults to the paper's 100 cycles.
	NetworkLatency int64
	// Seed perturbs processor-private randomness (default fixed).
	Seed uint64
	// MaxSteps bounds simulation length (watchdog); 0 means default.
	MaxSteps uint64
	// Sink, if set, records the run's coherence-event stream and derives the
	// Result's Blocks metrics (see NewCoherenceSink). A nil sink costs
	// nothing: the simulation runs its usual allocation-free steady state.
	Sink *CoherenceSink
	// Faults, if set and non-trivial, installs a deterministic
	// fault-injection plan on the interconnect: probabilistic drops,
	// duplications, and delays plus scripted per-message faults, all drawn
	// from the plan's own seeded stream (see ParseFaults and docs/FAULTS.md).
	// An active plan automatically enables the hardened protocol —
	// per-transaction timeouts, bounded retransmission with exponential
	// backoff, and NACK handling — so every run still terminates and passes
	// the coherence audit. A nil (or zero) Faults costs nothing.
	Faults *FaultConfig
	// Cache, if set, memoizes Results by the run's canonical content
	// address (workload, scale, protocol, machine parameters, fault plan,
	// seed): a repeated configuration is served from memory, bit-identical
	// to a fresh simulation. The handle is caller-owned, so one cache can
	// span many Run calls (see NewResultCache). Runs with a Sink attached
	// bypass the cache — recording is a side effect a memoized result
	// cannot replay — as do custom programs via RunProgram (no canonical
	// key). A nil Cache simulates every run.
	Cache *ResultCache
}

// ResultCache is a content-addressed, byte-budgeted LRU store of simulation
// Results with singleflight deduplication of concurrent identical requests
// (internal/simcache). Attach one via Config.Cache.
type ResultCache = simcache.Cache

// NewResultCache builds a result cache that holds at most budgetBytes of
// cached Results (<= 0 means unbounded).
func NewResultCache(budgetBytes int64) *ResultCache { return simcache.New(budgetBytes) }

// FaultConfig describes a deterministic fault-injection plan. The zero value
// injects nothing.
type FaultConfig = faultinj.Config

// FaultRule is one scripted fault ("drop the 3rd Inv from home 0 to node 7").
type FaultRule = faultinj.Rule

// FaultStats counts the fault decisions a run's plan made (Result.Faults).
type FaultStats = faultinj.Stats

// Fault actions for FaultRule.Action.
const (
	// FaultDrop discards the message (delivery never happens).
	FaultDrop = faultinj.Drop
	// FaultDuplicate delivers a second copy after a bounded spacing.
	FaultDuplicate = faultinj.Duplicate
	// FaultDelay adds bounded extra latency to the delivery.
	FaultDelay = faultinj.Delay
)

// ParseFaults builds a FaultConfig from a comma-separated spec string, e.g.
//
//	drop=0.05,dup=0.01,delay=0.2,jitter=40,seed=7
//	dropkind=Inv:0.5,droplink=2-5:0.25
//
// Message-kind names in dropkind (Inv, GetX, DataS, ...) resolve through the
// interconnect's kind table. An empty spec yields the zero FaultConfig.
func ParseFaults(spec string) (FaultConfig, error) {
	return faultinj.Parse(spec, int(netsim.NumKinds), func(name string) (int, bool) {
		k, ok := netsim.ParseKind(name)
		return int(k), ok
	})
}

// Result is the outcome of one simulation run.
type Result = machine.Result

// CoherenceSink records one structured event per protocol message, state
// transition, self-invalidation, FIFO displacement, and tear-off grant, and
// derives per-block lifetime metrics from the stream. Attach one via
// Config.Sink, then export with WriteChrome (Chrome trace_event JSON for
// chrome://tracing / Perfetto) or WriteText, or read Metrics. See
// docs/OBSERVABILITY.md for the event schema.
type CoherenceSink = obs.Sink

// CoherenceEvent is one recorded coherence event.
type CoherenceEvent = obs.Event

// CoherenceFilter selects a subset of a recorded event stream for
// CoherenceSink.WriteText.
type CoherenceFilter = obs.Filter

// BlockMetrics are the per-block lifetime metrics a CoherenceSink derives:
// time-in-state histograms, premature-self-invalidation and echo-loss
// counters, and transaction latencies.
type BlockMetrics = obs.BlockMetrics

// NewCoherenceSink builds an empty coherence-event sink with default
// settings (unbounded recording, 400-cycle premature-self-invalidation
// window).
func NewCoherenceSink() *CoherenceSink { return obs.NewSink(obs.Config{}) }

// Program is a custom workload; see the Proc API in internal/cpu for the
// kernel-side operations (Read, Write, WriteWord, Swap, Compute, Lock,
// Unlock, Barrier, Assert).
type Program = machine.Program

// Proc is the kernel-side processor handle passed to Program.Kernel.
type Proc = cpu.Proc

// Machine re-exports the assembled-machine handle (passed to
// Program.Setup, where workloads allocate simulated memory via Layout).
type Machine = machine.Machine

// Breakdown re-exports the execution-time breakdown.
type Breakdown = stats.Breakdown

// Addr is a simulated byte address.
type Addr = mem.Addr

// Region is an allocated range of the simulated address space.
type Region = mem.Region

// Layout is the machine's address-space allocator, available to custom
// programs in Setup via Machine.Layout.
type Layout = mem.Layout

// Workloads lists the built-in workload names.
func Workloads() []string { return workload.Names() }

// PaperWorkloads lists the five Table 1 applications.
func PaperWorkloads() []string { return workload.PaperNames() }

func (c Config) machineConfig() (machine.Config, error) {
	p := c.Protocol
	if p == "" {
		p = SC
	}
	l, err := proto.LabelOf(string(p))
	if err != nil {
		return machine.Config{}, fmt.Errorf("dsisim: %w", err)
	}
	return machine.Config{
		Processors:     c.Processors,
		CacheBytes:     c.CacheBytes,
		CacheAssoc:     c.CacheAssoc,
		NetworkLatency: event.Time(c.NetworkLatency),
		Consistency:    l.Consistency,
		Policy:         l.Policy,
		Seed:           c.Seed,
		MaxSteps:       c.MaxSteps,
		Sink:           c.Sink,
		Faults:         c.Faults,
	}, nil
}

// Run simulates the named built-in workload under cfg.
func Run(cfg Config) (Result, error) {
	if cfg.Workload == "" {
		return Result{}, fmt.Errorf("dsisim: Config.Workload is empty (use RunProgram for custom programs)")
	}
	if cfg.Cache != nil && cfg.Sink == nil {
		// Built-in workloads are fully determined by the Config, so the run
		// has a canonical content address. A Sink disables memoization: event
		// recording is a side effect a cached result cannot replay.
		mc, err := cfg.machineConfig()
		if err != nil {
			return Result{}, err
		}
		proto := cfg.Protocol
		if proto == "" {
			proto = SC
		}
		key := simcache.RequestOf(cfg.Workload, cfg.Scale.String(), string(proto), mc).Key()
		var runErr error
		res, _ := cfg.Cache.Do(key, func() machine.Result {
			var r Result
			r, runErr = runUncached(cfg)
			if runErr != nil && !r.Failed() {
				// Mark construction failures (e.g. unknown workload) so the
				// cache never stores them; hits must imply a successful run.
				r.Errors = append(r.Errors, runErr.Error())
			}
			return r
		})
		return res, runErr
	}
	return runUncached(cfg)
}

func runUncached(cfg Config) (Result, error) {
	prog, err := workload.New(cfg.Workload, cfg.Scale)
	if err != nil {
		return Result{}, err
	}
	return RunProgram(cfg, prog)
}

// pool recycles simulated machines across Run/RunProgram calls: experiment
// grids and benchmark loops that simulate the same machine shape repeatedly
// pay the structural allocation cost once. Reuse is observationally
// invisible — machine.Reset restores a just-assembled state, and the kernel
// determinism goldens (which run every protocol through this pool, twice)
// gate that invariant.
var pool machine.Pool

// RunProgram simulates a custom program under cfg. Programs are single-use;
// the machine that runs one is drawn from an internal pool and recycled.
func RunProgram(cfg Config, prog Program) (Result, error) {
	mc, err := cfg.machineConfig()
	if err != nil {
		return Result{}, err
	}
	m := pool.Get(mc)
	res := m.Run(prog)
	pool.Put(m)
	if res.Failed() {
		return res, fmt.Errorf("dsisim: run of %q failed: %s", prog.Name(), res.Errors[0])
	}
	return res, nil
}

// BlockSize is the simulated cache block size in bytes.
const BlockSize = mem.BlockSize
