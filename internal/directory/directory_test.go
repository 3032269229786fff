package directory

import (
	"testing"
	"testing/quick"
)

func TestNodeSetBasics(t *testing.T) {
	var s NodeSet
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("zero set not empty")
	}
	s = s.Add(3).Add(17).Add(3)
	if s.Count() != 2 || !s.Has(3) || !s.Has(17) || s.Has(4) {
		t.Fatalf("set = %v", s)
	}
	s = s.Remove(3)
	if s.Has(3) || !s.Only(17) {
		t.Fatalf("after remove: %v", s)
	}
	if s.String() != "{17}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestNodeSetForEachAscending(t *testing.T) {
	s := NodeSet(0).Add(31).Add(0).Add(5)
	var got []int
	s.ForEach(func(n int) { got = append(got, n) })
	want := []int{0, 5, 31}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestNodeSetAddRemoveProperty(t *testing.T) {
	f := func(init uint64, node uint8) bool {
		n := int(node % 64)
		s := NodeSet(init)
		return s.Add(n).Has(n) && !s.Remove(n).Has(n) &&
			s.Add(n).Remove(n) == s.Remove(n) &&
			s.Add(n).Add(n) == s.Add(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateClassification(t *testing.T) {
	idle := []State{Idle, IdleX, IdleS, IdleSI}
	for _, s := range idle {
		if !s.IsIdle() || s.IsShared() {
			t.Errorf("%v misclassified", s)
		}
	}
	for _, s := range []State{Shared, SharedSI} {
		if !s.IsShared() || s.IsIdle() {
			t.Errorf("%v misclassified", s)
		}
	}
	if Exclusive.IsIdle() || Exclusive.IsShared() {
		t.Error("Exclusive misclassified")
	}
	for s := Idle; s <= IdleSI; s++ {
		if s.String() == "" {
			t.Errorf("state %d unnamed", int(s))
		}
	}
}

func TestVersionWrapsAt4Bits(t *testing.T) {
	var e Entry
	for i := 0; i < 15; i++ {
		e.BumpVersion()
	}
	if e.Ver != 15 {
		t.Fatalf("ver = %d, want 15", e.Ver)
	}
	e.BumpVersion()
	if e.Ver != 0 {
		t.Fatalf("ver after wrap = %d, want 0", e.Ver)
	}
}

func TestBumpClearsReadCounter(t *testing.T) {
	var e Entry
	e.NoteSharedGrant()
	e.NoteSharedGrant()
	if !e.ReadByTwo() {
		t.Fatal("two grants should set both bits")
	}
	e.BumpVersion()
	if e.ReadCnt != 0 || e.ReadByTwo() {
		t.Fatal("bump did not clear read counter")
	}
}

func TestReadByTwoNeedsTwoGrants(t *testing.T) {
	var e Entry
	if e.ReadByTwo() {
		t.Fatal("fresh entry ReadByTwo")
	}
	e.NoteSharedGrant()
	if e.ReadByTwo() {
		t.Fatal("one grant sufficed")
	}
	e.NoteSharedGrant()
	if !e.ReadByTwo() {
		t.Fatal("two grants did not suffice")
	}
	// Saturates rather than overflowing.
	e.NoteSharedGrant()
	if !e.ReadByTwo() || e.ReadCnt > 3 {
		t.Fatalf("counter escaped 2 bits: %d", e.ReadCnt)
	}
}

func TestTearOffBit(t *testing.T) {
	var e Entry
	e.NoteTearOffGrant()
	if e.MultiTearOff {
		t.Fatal("one grant set MultiTearOff")
	}
	e.NoteTearOffGrant()
	if !e.MultiTearOff {
		t.Fatal("second grant did not set MultiTearOff")
	}
	e.ClearTearOff()
	if e.TearOffOut || e.MultiTearOff {
		t.Fatal("clear did not reset")
	}
}

// Property: version numbers always stay within 4 bits and the read counter
// within 2 bits for any operation sequence.
func TestFieldWidthProperty(t *testing.T) {
	f := func(ops []bool) bool {
		var e Entry
		for _, bump := range ops {
			if bump {
				e.BumpVersion()
			} else {
				e.NoteSharedGrant()
			}
			if e.Ver > VerMask || e.ReadCnt > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
