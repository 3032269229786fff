// Package directory implements the full-map directory storage of the
// Dir_nNB-style protocol the paper extends: per-block entries holding the
// base three states (Idle, Shared, Exclusive), the four additional DSI
// states (Shared_SI, Idle_X, Idle_S, Idle_SI), the 4-bit version number and
// 2-bit shared-copy shift register of the version-number scheme, and the
// tear-off tracking bit.
//
// The package is pure state: transitions are driven by the protocol engines
// in internal/proto, and the self-invalidation decisions are made by the
// policies in internal/core.
package directory

import (
	"fmt"
	"math/bits"
)

// NodeSet is a full-map sharer bit vector (up to MaxNodes nodes, the paper
// simulates 32).
type NodeSet uint64

// MaxNodes is the largest machine a NodeSet can describe.
const MaxNodes = 64

// Add returns s with node present.
func (s NodeSet) Add(node int) NodeSet { return s | 1<<uint(node) }

// Remove returns s without node.
func (s NodeSet) Remove(node int) NodeSet { return s &^ (1 << uint(node)) }

// Has reports whether node is present.
func (s NodeSet) Has(node int) bool { return s&(1<<uint(node)) != 0 }

// Count returns the number of nodes present.
func (s NodeSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set is empty.
func (s NodeSet) Empty() bool { return s == 0 }

// Only reports whether node is the sole member.
func (s NodeSet) Only(node int) bool { return s == 1<<uint(node) }

// ForEach calls fn for each member in ascending order.
func (s NodeSet) ForEach(fn func(node int)) {
	for v := uint64(s); v != 0; {
		n := bits.TrailingZeros64(v)
		fn(n)
		v &^= 1 << uint(n)
	}
}

func (s NodeSet) String() string {
	out := "{"
	first := true
	s.ForEach(func(n int) {
		if !first {
			out += ","
		}
		out += fmt.Sprint(n)
		first = false
	})
	return out + "}"
}

// State is a directory block state. The base protocol uses the first three;
// the additional-states DSI scheme uses all seven.
type State int

const (
	// Idle: no outstanding copies.
	Idle State = iota
	// Shared: one or more outstanding shared-readable copies.
	Shared
	// Exclusive: exactly one outstanding readable/writable copy.
	Exclusive
	// SharedSI: outstanding shared copies that were all handed out marked
	// for self-invalidation (entered when a read request is served from
	// Exclusive).
	SharedSI
	// IdleX: idle, reached from Exclusive by self-invalidation/writeback.
	IdleX
	// IdleS: idle, reached from Shared by self-invalidation.
	IdleS
	// IdleSI: idle, reached by cache replacement of a self-invalidate block.
	IdleSI
)

var stateNames = [...]string{"Idle", "Shared", "Exclusive", "Shared_SI", "Idle_X", "Idle_S", "Idle_SI"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// IsIdle reports whether the state has no outstanding tracked copies.
func (s State) IsIdle() bool { return s == Idle || s == IdleX || s == IdleS || s == IdleSI }

// IsShared reports whether the state has outstanding shared tracked copies.
func (s State) IsShared() bool { return s == Shared || s == SharedSI }

// VerBits is the width of the version number; the paper evaluates 4 bits.
const VerBits = 4

// VerMask masks a version to VerBits.
const VerMask = (1 << VerBits) - 1

// Entry is one block's directory state. Fields are exported because the
// protocol engine and the DSI policies both manipulate them; Entry has no
// behaviour of its own beyond small helpers.
type Entry struct {
	State   State
	Sharers NodeSet // valid when State.IsShared()
	Owner   int     // valid when State == Exclusive

	// LastOwner remembers which node most recently held the block
	// exclusive, for the Idle_X "a different processor had the block
	// exclusive" test. -1 when no writer yet.
	LastOwner int

	// Version-number scheme storage.
	Ver     uint8 // 4-bit version, incremented on every exclusive grant
	ReadCnt uint8 // 2-bit shift register of shared grants this version

	// Migratory-detection state (the Cox/Fowler-style adaptive baseline,
	// optional): Migratory marks blocks in migratory mode, where read
	// requests are granted exclusive; ReadersSinceWrite counts shared
	// grants since the last exclusive grant (two readers demote the block).
	Migratory         bool
	ReadersSinceWrite int

	// Tear-off support: set while more than one tear-off copy may be
	// outstanding (paper §4.1: one extra bit per entry).
	MultiTearOff bool
	// TearOffOut tracks whether any tear-off copy may be outstanding since
	// the last exclusive grant (implied by the single-copy case of the
	// paper's bit; kept separately for clarity).
	TearOffOut bool
}

// BumpVersion increments the 4-bit version (wrapping) and clears the
// shared-copy shift register, as the paper specifies on every exclusive
// request.
func (e *Entry) BumpVersion() {
	e.Ver = (e.Ver + 1) & VerMask
	e.ReadCnt = 0
}

// NoteSharedGrant shifts a one into the 2-bit read counter.
func (e *Entry) NoteSharedGrant() {
	e.ReadCnt = ((e.ReadCnt << 1) | 1) & 0x3
}

// ReadByTwo reports whether the current version has been read at least
// twice (both counter bits set).
func (e *Entry) ReadByTwo() bool { return e.ReadCnt == 0x3 }

// NoteTearOffGrant records that a tear-off copy went out.
func (e *Entry) NoteTearOffGrant() {
	if e.TearOffOut {
		e.MultiTearOff = true
	}
	e.TearOffOut = true
}

// ClearTearOff resets tear-off tracking (on exclusive grant, when all
// outstanding tear-off copies are guaranteed dead by the consistency model's
// next sync points — see proto for when this is safe to call).
func (e *Entry) ClearTearOff() {
	e.TearOffOut = false
	e.MultiTearOff = false
}
