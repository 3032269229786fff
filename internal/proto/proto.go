// Package proto implements the coherence protocol engines: the
// directory-side controller (dirctrl.go) and the cache-side controller
// (cachectrl.go) of the full-map write-invalidate protocol the paper
// evaluates, under both consistency models:
//
//   - Sequential consistency (SC): the processor stalls on every miss; the
//     directory invalidates outstanding copies and collects all
//     acknowledgments before forwarding the block.
//   - Weak consistency (WC): a 16-entry coalescing write buffer holds
//     outstanding exclusive requests; the directory grants exclusive access
//     in parallel with invalidation and forwards a single FinalAck once the
//     acknowledgments are collected; the processor stalls at swap/barrier
//     operations until all buffered writes are acknowledged, and on read
//     misses.
//
// DSI attaches through core.Policy: the directory controller asks the
// policy whether to mark each grant (and whether to hand shared copies out
// untracked as tear-off blocks), and each cache controller keeps the
// policy's per-node state (core.SelfInval), which it runs at installs,
// invalidations and synchronization points.
package proto

import (
	"fmt"

	"dsisim/internal/core"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/obs"
)

// Consistency selects the memory consistency model.
type Consistency int

const (
	// SC is sequential consistency.
	SC Consistency = iota
	// WC is weak consistency with a coalescing write buffer.
	WC
)

func (c Consistency) String() string {
	if c == SC {
		return "SC"
	}
	return "WC"
}

// Timing constants from the paper's methodology section.
const (
	// CacheOccupancy is the cache controller occupancy per miss.
	CacheOccupancy = 3
	// DirOccupancy is the directory controller occupancy per request.
	DirOccupancy = 10
	// TearOffFlash is the time to flash-clear all tear-off blocks at a
	// synchronization point (a single cycle, §4.2).
	TearOffFlash = 1
)

// Env bundles the shared simulation context every controller needs.
type Env struct {
	Q      *event.Queue
	Net    *netsim.Network
	Layout *mem.Layout

	// CheckFail reports a protocol invariant violation. The machine wires
	// it to panic in tests and to error accumulation elsewhere. Never nil
	// after machine assembly.
	CheckFail func(format string, args ...any)

	// Sink is the coherence-event sink, nil unless observability was
	// requested. Controllers must guard every emission with a nil check so
	// the disabled path stays branch-only (see DESIGN.md §6).
	Sink *obs.Sink

	// txnSeq is the transaction-id counter behind NextTxn.
	txnSeq uint64

	// home is the machine's one set of home-side tables, which every
	// DirCtrl shares (see homeTables). The zero value is empty.
	home homeTables
}

// NextTxn returns the next coherence transaction id. Ids start at 1 so that
// 0 can mean "no transaction" on unsolicited messages. The counter advances
// deterministically with the protocol's own event order, so ids are stable
// run to run and carry no timing effect.
func (e *Env) NextTxn() uint64 {
	e.txnSeq++
	return e.txnSeq
}

// Reset rewinds the transaction-id counter, empties the home tables
// (keeping their allocations), and installs the (possibly nil) sink for the
// next run. The queue, network, layout, and CheckFail wiring persist across
// machine reuse.
func (e *Env) Reset(sink *obs.Sink) {
	e.txnSeq = 0
	e.Sink = sink
	e.home.reset()
}

// fail reports a protocol invariant violation and does not return control to
// the caller's normal path: it panics unless a test installed CheckFail.
//
//dsi:coldpath
func (e *Env) fail(format string, args ...any) {
	if e.CheckFail != nil {
		e.CheckFail(format, args...)
		return
	}
	panic(fmt.Sprintf("proto: "+format, args...))
}

// Config parameterizes one node's protocol controllers.
type Config struct {
	Consistency Consistency
	// WriteBufferEntries is the coalescing write buffer capacity under WC
	// (the paper uses 16). Ignored under SC.
	WriteBufferEntries int
	// SharerLimit caps the directory's sharer pointers per block
	// (a Dir_iNB-style limited directory, per the paper's citation [3]):
	// when a read grant would exceed the limit, the directory invalidates
	// one existing sharer to free a pointer. 0 means full map. Must be >= 2
	// when set (a recall transaction installs owner + requester together).
	SharerLimit int
	Policy      core.Policy
	// Retry enables the hardened protocol (robust.go): per-transaction
	// timeouts, bounded retransmission with exponential backoff,
	// duplicate-request deduplication, grant replay, and Nack/NackHome
	// handling. nil runs the strict base protocol, which treats every
	// anomaly as an invariant violation and arms no timers. The machine
	// installs DefaultRetry automatically when a fault plan is configured.
	Retry *RetryConfig
}

// Store is one processor store: the coherence-checking token plus the data
// word to deposit at the store's address within the block. The cache merges
// it into the block's current contents at word granularity.
type Store struct {
	Writer int
	Seq    uint64
	Word   uint64
}

// MergeInto applies the store to block contents *v at address a.
func (s Store) MergeInto(v *mem.Value, a mem.Addr) {
	v.Writer = s.Writer
	v.Seq = s.Seq
	v.Words[mem.WordIndex(a)] = s.Word
}

// Result reports the completion of a processor-initiated access. A
// controller hands its continuation a *Result that points into storage the
// controller owns and is valid only for the call.
type Result struct {
	// Done is the simulated time the access completed.
	Done event.Time
	// Hit reports a cache hit (no protocol activity).
	Hit bool
	// InvWait is the portion of the miss latency the directory spent
	// invalidating or recalling outstanding copies — the coherence overhead
	// DSI eliminates; the processor attributes it to the read-inv/write-inv
	// categories.
	InvWait event.Time
	// WBRead reports that a read stalled behind an outstanding write-buffer
	// entry for the same block (weak consistency "read wb" time).
	WBRead bool
	// WBFullWait is the time a buffered store waited for a free write
	// buffer slot (weak consistency "wb full" time).
	WBFullWait event.Time
	// Value is the block contents observed by a read or swap.
	Value mem.Value
	// OldWord is the word value a swap displaced.
	OldWord uint64
}
