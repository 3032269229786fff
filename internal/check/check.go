// Package check implements the coherence audit run over a quiesced machine:
// with no transactions or messages in flight, every directory entry must
// agree with the caches (single writer, tracked sharer sets exact, shared
// copies equal to home memory). Tear-off copies are intentionally untracked
// and may be stale, but must never be writable.
package check

import (
	"fmt"
	"strings"

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

// Audit verifies the machine-wide invariants over a quiesced system and
// returns every violation found. On a system that failed to quiesce it
// reports exactly which transactions are stuck — per-node outstanding
// misses and per-home busy blocks, with their transaction ids and retry
// counts — and skips the entry-level checks, which are only meaningful once
// nothing is in flight.
func Audit(ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl, inFlight int) []error {
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
	for _, dc := range dcs {
		if b := dc.BusyBlocks(); b != 0 {
			errs = append(errs, fmt.Errorf("home %d: %d busy blocks", dc.Dir().Node(), b))
			for _, bt := range dc.DumpBusy() {
				errs = append(errs, fmt.Errorf("home %d: stuck txn %d (%v for %#x from node %d) awaiting %v via %v (%d retries, %d queued)",
					dc.Dir().Node(), bt.Txn, bt.Req, uint64(bt.Addr), bt.From, bt.Pending, bt.Action, bt.Retries, bt.Queued))
			}
		}
		if !quiesced {
			continue
		}
		dc.Dir().ForEach(func(b mem.Addr, e *directory.Entry) {
			if err := auditEntry(ccs, dc, b, e); err != nil {
				errs = append(errs, fmt.Errorf("block %#x (home %d): %w", uint64(b), dc.Dir().Node(), err))
			}
		})
	}
	return errs
}

func auditEntry(ccs []*proto.CacheCtrl, dc *proto.DirCtrl, b mem.Addr, e *directory.Entry) error {
	var exclusives, tracked, tearoffs directory.NodeSet
	for n, cc := range ccs {
		f, ok := cc.Cache().Peek(b)
		if !ok {
			continue
		}
		if f.State == cache.Exclusive {
			exclusives = exclusives.Add(n)
		}
		if f.TearOff {
			tearoffs = tearoffs.Add(n)
			if f.State == cache.Exclusive {
				return fmt.Errorf("node %d holds a writable tear-off copy", n)
			}
		} else {
			tracked = tracked.Add(n)
		}
	}
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
		want := dc.Memory().Read(b)
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
