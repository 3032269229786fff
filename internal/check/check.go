// Package check implements the coherence audit run over a quiesced machine:
// with no transactions or messages in flight, every directory entry must
// agree with the caches (single writer, tracked sharer sets exact, shared
// copies equal to home memory). Tear-off copies are intentionally untracked
// and may be stale, but must never be writable.
package check

import (
	"fmt"
	"math/bits"
	"strings"

	"dsisim/internal/blockmap"
	"dsisim/internal/cache"
	"dsisim/internal/directory"
	"dsisim/internal/mem"
	"dsisim/internal/proto"
)

// CrossCheckOutcomes compares a program's observed final memory outcomes
// against a reference model's expected outcomes, slot by slot. It is the
// litmus runner's second oracle (internal/workload/litmus.go): Audit proves
// the coherence metadata is consistent, CrossCheckOutcomes proves the
// values a sequentially-consistent reference interleaving predicts actually
// landed in memory. label names the slot space in diagnostics (e.g.
// "block"). The returned error lists every mismatching slot.
func CrossCheckOutcomes(label string, got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("outcome cross-check: %d observed %ss, reference has %d", len(got), label, len(want))
	}
	var errs []string
	for i := range got {
		if got[i] != want[i] {
			errs = append(errs, fmt.Sprintf("%s %d: got %d, reference says %d", label, i, got[i], want[i]))
		}
	}
	if errs != nil {
		return fmt.Errorf("outcome cross-check: %s", strings.Join(errs, "; "))
	}
	return nil
}

// Scratch is Audit's reusable working storage: the holder sets of every
// cached block, filled by one scan over the caches' tag arrays. A machine
// keeps one, so a warm audit allocates only its errors. The zero value is
// ready to use.
type Scratch struct {
	holders blockmap.Map[holders]
}

// holders records which nodes hold a valid copy of one block: the writable
// copies, the tracked copies (every copy not torn off), and the tear-off
// copies.
type holders struct {
	exclusive, tracked, tearOff directory.NodeSet
}

// add records node n's copy f.
func (h *holders) add(n int, f cache.Frame) {
	if f.State == cache.Exclusive {
		h.exclusive = h.exclusive.Add(n)
	}
	if f.TearOff {
		h.tearOff = h.tearOff.Add(n)
	} else {
		h.tracked = h.tracked.Add(n)
	}
}

// Audit verifies the machine-wide invariants over a quiesced system and
// returns every violation found. On a system that failed to quiesce it
// reports exactly which transactions are stuck — per-node outstanding
// misses and per-home busy blocks, with their transaction ids and retry
// counts — and skips the entry-level checks, which are only meaningful once
// nothing is in flight.
//
// dcs[n] is node n's directory controller; they share the machine's one
// table of home records, and Audit reports each entry under its block's
// home. Findings are listed home by home in node order, each home's busy
// blocks first and then its entries in first-touch order.
//
// The entry-level checks need each directory entry's holder sets. Audit
// collects them along the cheaper side: one scan of every cache's ways into
// s when the caches hold fewer ways than entries × nodes (a large machine
// with many directory entries), otherwise one probe of every cache per entry.
// A nil s always probes. Both ways find the same violations, in the same
// order, with the same text.
func Audit(ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl, inFlight int, s *Scratch) []error {
	if s != nil && !scanIsCheaper(ccs, dcs) {
		s = nil
	}
	return audit(ccs, dcs, inFlight, s)
}

// scanIsCheaper reports whether scanning every cache's ways costs fewer tag
// probes than probing every cache once per directory entry.
func scanIsCheaper(ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl) bool {
	ways := 0
	for _, cc := range ccs {
		ways += cc.Cache().Ways()
	}
	return len(dcs) > 0 && ways < dcs[0].Entries()*len(ccs)
}

// audit is Audit with the collection fixed: holder sets from one scan into s,
// or from per-entry probes when s is nil.
func audit(ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl, inFlight int, s *Scratch) []error {
	var errs []error
	quiesced := inFlight == 0
	if !quiesced {
		errs = append(errs, fmt.Errorf("audit of non-quiesced system: %d messages in flight", inFlight))
	}
	for n, cc := range ccs {
		if o := cc.Outstanding(); o != 0 {
			errs = append(errs, fmt.Errorf("node %d: %d outstanding misses/entries", n, o))
			for _, om := range cc.DumpOutstanding() {
				errs = append(errs, fmt.Errorf("node %d: stuck %s for %#x (txn %d, %d retries, started t=%d)",
					n, om.Op, uint64(om.Addr), om.Txn, om.Retries, om.Start))
			}
		}
	}
	if quiesced && s != nil {
		s.holders.Reset()
		for n, cc := range ccs {
			cc.Cache().ForEachValid(func(f cache.Frame) {
				s.holders.Ensure(mem.BlockIndex(f.Tag)).add(n, f)
			})
		}
	}
	// found[n] holds home n's entry findings in first-touch order, from one
	// pass over the shared home records; it is made on the first finding, so
	// a clean audit looks up no entry's home.
	var found [][]error
	if quiesced && len(dcs) > 0 {
		dcs[0].ForEachEntry(func(b mem.Addr, e *directory.Entry, data *mem.Value) {
			var h holders
			if s == nil {
				for n, cc := range ccs {
					if f, ok := cc.Cache().Peek(b); ok {
						h.add(n, f)
					}
				}
			} else if p := s.holders.Get(mem.BlockIndex(b)); p != nil {
				h = *p
			}
			if err := auditEntry(ccs, b, e, data, h); err != nil {
				home := dcs[0].HomeOf(b)
				if found == nil {
					found = make([][]error, len(dcs))
				}
				found[home] = append(found[home], fmt.Errorf("block %#x (home %d): %w", uint64(b), home, err))
			}
		})
	}
	for n, dc := range dcs {
		if b := dc.BusyBlocks(); b != 0 {
			errs = append(errs, fmt.Errorf("home %d: %d busy blocks", dc.Node(), b))
			for _, bt := range dc.DumpBusy() {
				errs = append(errs, fmt.Errorf("home %d: stuck txn %d (%v for %#x from node %d) awaiting %v via %v (%d retries, %d queued)",
					dc.Node(), bt.Txn, bt.Req, uint64(bt.Addr), bt.From, bt.Pending, bt.Action, bt.Retries, bt.Queued))
			}
		}
		if found != nil {
			errs = append(errs, found[n]...)
		}
	}
	return errs
}

// auditEntry checks one directory entry against the holder sets of its
// block and its home memory image data, and returns the first violation.
func auditEntry(ccs []*proto.CacheCtrl, b mem.Addr, e *directory.Entry, data *mem.Value, h holders) error {
	if w := h.tearOff & h.exclusive; !w.Empty() {
		return fmt.Errorf("node %d holds a writable tear-off copy", bits.TrailingZeros64(uint64(w)))
	}
	exclusives, tracked := h.exclusive, h.tracked
	if exclusives.Count() > 1 {
		return fmt.Errorf("multiple writers: %v", exclusives)
	}
	switch {
	case e.State == directory.Exclusive:
		if !exclusives.Only(e.Owner) {
			return fmt.Errorf("directory says owner %d, caches say %v", e.Owner, exclusives)
		}
		if tracked != exclusives {
			return fmt.Errorf("tracked copies %v beyond owner %d", tracked, e.Owner)
		}
	case e.State.IsShared():
		if !exclusives.Empty() {
			return fmt.Errorf("state %v but writable copy at %v", e.State, exclusives)
		}
		if tracked != e.Sharers {
			return fmt.Errorf("directory sharers %v, tracked copies %v", e.Sharers, tracked)
		}
		want := *data
		var err error
		e.Sharers.ForEach(func(n int) {
			if f, ok := ccs[n].Cache().Peek(b); ok && f.Data != want && err == nil {
				err = fmt.Errorf("node %d shared copy %v differs from memory %v", n, f.Data, want)
			}
		})
		if err != nil {
			return err
		}
	case e.State.IsIdle():
		if !tracked.Empty() {
			return fmt.Errorf("state %v but tracked copies at %v", e.State, tracked)
		}
	default:
		return fmt.Errorf("unknown directory state %v", e.State)
	}
	return nil
}
