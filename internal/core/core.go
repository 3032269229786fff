// Package core implements the paper's contribution: the dynamic
// self-invalidation (DSI) policies. It is deliberately separated from the
// protocol machinery (internal/proto) and the hardware structures
// (internal/cache, internal/directory) so the policies read like §4 of the
// paper. A Policy is a plain, comparable value naming the hardware choices:
//
//   - Identifier: how the directory decides which blocks to hand out marked
//     for self-invalidation — the additional-states scheme or the 4-bit
//     version-number scheme (or never, or always, to bound the space).
//   - the mechanism: how the cache controller performs the
//     self-invalidation — a finite FIFO buffer, or a flush of all marked
//     blocks at each synchronization operation, optionally charged the
//     naive sequential scan.
//   - History: cache-side identification by an invalidation-history table.
//   - tear-off blocks, migratory sharing, and the two special cases of §4.1
//     (no self-invalidation of blocks homed at the requester; no marking of
//     sequentially-consistent upgrades with no other sharers).
//
// SelfInval is the per-node state a policy's FIFO and history table keep:
// each cache controller owns one and resets it in place between runs.
package core

import (
	"strconv"

	"dsisim/internal/cache"
	"dsisim/internal/directory"
	"dsisim/internal/mem"
)

// Request carries the facts an Identifier may consult when the directory
// services a miss.
type Request struct {
	Node int // requesting node
	Home int // home node of the block

	// Version echo from the cache (version-number scheme): the version the
	// requester last observed for this block, if its tag memory still held
	// one.
	Ver    uint8
	HasVer bool

	// For write requests: whether the requester already held a shared copy
	// (an upgrade), and whether any other node also holds one.
	WasSharer    bool
	OtherSharers bool
}

// Identifier names a directory-side block identification scheme (§4.1).
// Read and Write are called while the directory services a request, before
// the new state is installed; they both decide whether to mark the response
// and update any predictor state the scheme keeps in the entry (version
// numbers, read counters).
//
// SetShared and SetIdle install the post-transaction state: the
// additional-states scheme chooses among Shared/Shared_SI and the four idle
// flavors, while the other schemes use only the three base states.
type Identifier uint8

const (
	// Never is the base protocol's scheme: nothing is ever marked. It is the
	// zero value, so the zero Policy runs without DSI.
	Never Identifier = iota
	// States identifies with four additional directory states. Every
	// processor gets the same decision for a given directory state.
	States
	// Versions identifies with a 4-bit per-block version number plus a
	// 2-bit counter of shared grants for the current version. Each
	// processor decides independently, via the version it echoes with its
	// miss.
	Versions
	// Always marks every grant. It is not a paper scheme; it bounds the
	// design space in ablation benchmarks and stresses the
	// self-invalidation machinery in tests.
	Always
)

func (id Identifier) String() string {
	switch id {
	case Never:
		return "never"
	case States:
		return "states"
	case Versions:
		return "versions"
	case Always:
		return "always"
	default:
		return "Identifier(" + strconv.Itoa(int(id)) + ")"
	}
}

// Read decides whether a shared grant is marked for self-invalidation.
// Under States, read requests obtain a self-invalidate block if the current
// state is Exclusive, Idle_X, Shared_SI or Idle_SI. Under Versions, the
// response is marked if the requester echoed a version and it differs from
// the current one (the block was modified since the requester last held
// it); the read also shifts a one into the shared-grant counter.
func (id Identifier) Read(e *directory.Entry, r Request) bool {
	switch id {
	case Never:
		return false
	case States:
		switch e.State {
		case directory.Exclusive, directory.IdleX, directory.SharedSI, directory.IdleSI:
			return true
		case directory.Idle, directory.IdleS, directory.Shared:
			return false
		default:
			panic("core: States.Read: unhandled directory state")
		}
	case Versions:
		si := r.HasVer && r.Ver != e.Ver
		e.NoteSharedGrant()
		return si
	case Always:
		return true
	default:
		panic("core: Read: unknown identifier " + id.String())
	}
}

// Write decides whether an exclusive grant is marked; the special cases of
// Policy are applied by the caller, not here. Under States, write requests
// obtain a self-invalidate block if the current state is Shared, Shared_SI,
// Exclusive, Idle_S, Idle_SI, or Idle_X where a different processor had the
// block exclusive. Under Versions, the grant is marked if the versions
// differ, or if the current version has been read by at least two
// processors (which may include the writer itself); the write bumps the
// version, clearing the read counter.
func (id Identifier) Write(e *directory.Entry, r Request) bool {
	switch id {
	case Never:
		return false
	case States:
		switch e.State {
		case directory.Shared, directory.SharedSI, directory.Exclusive,
			directory.IdleS, directory.IdleSI:
			return true
		case directory.IdleX:
			return e.LastOwner != r.Node
		case directory.Idle:
			return false
		default:
			panic("core: States.Write: unhandled directory state")
		}
	case Versions:
		si := (r.HasVer && r.Ver != e.Ver) || e.ReadByTwo()
		e.BumpVersion()
		return si
	case Always:
		return true
	default:
		panic("core: Write: unknown identifier " + id.String())
	}
}

// GrantVersion returns the version number to deliver with the response
// (after any bookkeeping done by Read/Write): under Versions the current
// (for writes: freshly bumped) version, for the cache's version memory;
// the other schemes deliver none.
func (id Identifier) GrantVersion(e *directory.Entry) (uint8, bool) {
	if id == Versions {
		return e.Ver, true
	}
	return 0, false
}

// SetShared installs the shared state after a read grant; si is the
// decision Read returned (after special cases). Under States, an SI read
// grant enters Shared_SI so all subsequent readers are marked too, and
// joining an existing Shared/Shared_SI population keeps its flavor.
func (id Identifier) SetShared(e *directory.Entry, si bool) {
	if id != States {
		e.State = directory.Shared
		return
	}
	switch {
	case e.State == directory.SharedSI:
		// stays Shared_SI
	case e.State == directory.Shared:
		// stays Shared
	case si:
		e.State = directory.SharedSI
	default:
		e.State = directory.Shared
	}
}

// SetIdle installs an idle state, with the cause and the state the block
// was in when the last copy disappeared. Under States, self-invalidation
// from Exclusive enters Idle_X, from a shared state Idle_S; replacement of
// a marked block enters Idle_SI; everything else is plain Idle.
func (id Identifier) SetIdle(e *directory.Entry, cause IdleCause, prev directory.State, wasSI bool) {
	if id != States {
		e.State = directory.Idle
		return
	}
	switch {
	case cause == CauseSelfInv && prev == directory.Exclusive:
		e.State = directory.IdleX
	case cause == CauseSelfInv:
		e.State = directory.IdleS
	case wasSI:
		e.State = directory.IdleSI
	default:
		e.State = directory.Idle
	}
}

// IdleCause says why a block's last outstanding copy disappeared.
type IdleCause int

const (
	// CauseReplace: the last copy was displaced by a cache fill.
	CauseReplace IdleCause = iota
	// CauseSelfInv: the last copy was self-invalidated.
	CauseSelfInv
)

func (c IdleCause) String() string {
	switch c {
	case CauseReplace:
		return "replace"
	case CauseSelfInv:
		return "self-inval"
	default:
		return "IdleCause(" + strconv.Itoa(int(c)) + ")"
	}
}

// ---------------------------------------------------------------------------
// Policy: the assembled DSI configuration.

// Policy configures DSI for one simulation. It is a plain value, so two
// policies compare with ==; the zero value runs the base protocol.
type Policy struct {
	// Identifier chooses the directory-side scheme; Never disables
	// directory-side marking.
	Identifier Identifier
	// FIFO is the capacity of the self-invalidation FIFO (§4.2; the paper
	// evaluates 64 entries): a marked block is self-invalidated when its
	// entry is displaced, and the FIFO is flushed at synchronization
	// operations. 0 instead walks the hardware linked list of marked frames
	// at each synchronization operation, which uses the full capacity of
	// the cache and hides its latency behind the notification injections.
	FIFO int
	// NaiveScan charges every synchronization point the §4.2 strawman's
	// sequential examination of every cache frame, one cycle per frame even
	// when nothing needs self-invalidation, to quantify what the paper's
	// flash-clear/linked-list circuits buy.
	NaiveScan bool
	// TearOff grants untracked shared copies for marked blocks (only sound
	// under weak consistency, where all tear-off copies die at sync points).
	TearOff bool
	// SCTearOff grants tear-off copies under sequential consistency with
	// Scheurich's restriction (§3.3): each cache holds at most one tear-off
	// block and invalidates it at its next cache miss (and, in this
	// implementation, at synchronization points — required for correctness
	// with the hardware barrier, and the natural analogue of the paper's
	// periodic-invalidation forward-progress fix).
	SCTearOff bool
	// History, if positive, adds cache-side identification (§3.1): each node
	// keeps an invalidation-history table of History entries (a power of
	// two) that marks re-fetched blocks locally, with or without a
	// directory-side Identifier. 0 keeps no table.
	History int
	// Migratory enables the adaptive migratory-sharing optimization the
	// paper cites as complementary related work (Cox & Fowler / Stenström
	// et al., ISCA 1993): the directory detects blocks that migrate
	// write-to-write between processors and answers *read* requests for
	// them with an exclusive grant, saving the later upgrade. Composes
	// with DSI.
	Migratory bool
	// UpgradeExemption applies the paper's sequential-consistency special
	// case: an exclusive grant to a requester that already held a shared
	// copy, with no other outstanding copies, is never marked.
	UpgradeExemption bool
}

// MarkRead applies the read-side decision with the home-node special case.
// The identifier's bookkeeping (the shared-grant counter) still runs for
// home-node reads; only the marking is suppressed.
func (p Policy) MarkRead(e *directory.Entry, r Request) bool {
	si := p.Identifier.Read(e, r)
	if r.Node == r.Home {
		return false
	}
	return si
}

// MarkWrite applies the write-side decision with both special cases.
func (p Policy) MarkWrite(e *directory.Entry, r Request) bool {
	si := p.Identifier.Write(e, r)
	if r.Node == r.Home {
		return false
	}
	if p.UpgradeExemption && r.WasSharer && !r.OtherSharers {
		return false
	}
	return si
}

// ---------------------------------------------------------------------------
// Per-node state (§4.2 mechanisms, §3.1 history table).

// SelfInval is one node's cache-side DSI state under its policy: the
// self-invalidation FIFO when the policy sizes one, the
// invalidation-history table when it sizes one (cacheside.go), and whether
// sync points pay the naive scan. A cache controller owns one and resets it
// in place between runs, so a reused machine keeps the ring, the table and
// the flush scratch.
type SelfInval struct {
	// ring holds the FIFO's block identities, the oldest at head, n of them
	// live. An empty ring means the list flush at sync points.
	ring    []mem.Addr
	head, n int
	// displacements counts early self-invalidations forced by the FIFO's
	// finite capacity — the effect Figure 5 attributes sparse's slowdown
	// to.
	displacements int64
	// scratch backs OnSync's FIFO result across calls (consumed
	// synchronously by the cache controller), keeping the sync flush
	// allocation-free.
	scratch []cache.Evicted

	// naive charges every sync point the sequential scan
	// (Policy.NaiveScan).
	naive bool

	// The history table: direct-mapped tags and saturating invalidation
	// counts, empty when the policy keeps none.
	tags   []mem.Addr
	counts []uint8
}

// Reset empties the state and sizes it for p, keeping its arrays. It
// panics on a negative FIFO capacity or a history size that is not a
// power of two.
func (s *SelfInval) Reset(p Policy) {
	if p.FIFO < 0 {
		panic("core: FIFO capacity must not be negative")
	}
	s.ring = resize(s.ring, p.FIFO)
	s.head, s.n = 0, 0
	s.displacements = 0
	s.naive = p.NaiveScan
	s.resetHistory(p.History)
}

// resize returns s resliced to n elements, reallocated only when its
// capacity is short; the elements' values are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// OnInstall enqueues a marked block that just arrived. A full FIFO first
// displaces its oldest entry, self-invalidating that block if it is still
// cached and marked, and returns the evicted copy with ok set. Under the
// list flush nothing happens until a sync point.
func (s *SelfInval) OnInstall(c *cache.Cache, block mem.Addr) (ev cache.Evicted, ok bool) {
	if len(s.ring) == 0 {
		return cache.Evicted{}, false
	}
	if s.n < len(s.ring) {
		tail := s.head + s.n
		if tail >= len(s.ring) {
			tail -= len(s.ring)
		}
		s.ring[tail] = mem.BlockOf(block)
		s.n++
		return cache.Evicted{}, false
	}
	// Full: the new block takes the oldest entry's slot.
	victim := s.ring[s.head]
	s.ring[s.head] = mem.BlockOf(block)
	if s.head++; s.head == len(s.ring) {
		s.head = 0
	}
	if ev, ok = c.SelfInvalidate(victim); ok {
		s.displacements++
	}
	return ev, ok
}

// OnSync performs the self-invalidation due at a synchronization operation
// and returns the blocks invalidated, in the order the hardware processes
// them: the FIFO's entries oldest first, then the cache's list of marked
// frames (under the list flush, only the list). The result is scratch
// reused by the next call.
func (s *SelfInval) OnSync(c *cache.Cache) []cache.Evicted {
	if len(s.ring) == 0 {
		return c.MarkedFlush()
	}
	out := s.scratch[:0]
	for ; s.n > 0; s.n-- {
		if ev, ok := c.SelfInvalidate(s.ring[s.head]); ok {
			out = append(out, ev)
		}
		if s.head++; s.head == len(s.ring) {
			s.head = 0
		}
	}
	// Defensively drain the cache's marked list as well: a marked frame can
	// only be missing from the FIFO if a caller skipped OnInstall, and a
	// silent invalidation would leave the directory with phantom copies —
	// notify for those too.
	out = append(out, c.MarkedFlush()...)
	s.scratch = out
	return out
}

// ScanLatency is the cycles a sync point needs to find the marked blocks,
// beyond the per-block message injections: one per cache frame for the
// naive sequential scan, zero for the linked list and the FIFO, which know
// their blocks.
func (s *SelfInval) ScanLatency(c *cache.Cache) int64 {
	if !s.naive {
		return 0
	}
	return int64(c.Ways())
}

// Displacements returns the FIFO's early self-invalidations since the last
// Reset.
func (s *SelfInval) Displacements() int64 { return s.displacements }
