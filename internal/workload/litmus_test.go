package workload

import (
	"reflect"
	"testing"

	"dsisim/internal/faultinj"
	"dsisim/internal/proto"
	"dsisim/internal/rng"
)

// Generation is a pure function of the seed.
func TestGenLitmusDeterministic(t *testing.T) {
	a, b := GenLitmus(42), GenLitmus(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different specs:\n%+v\n%+v", a, b)
	}
	if c := GenLitmus(43); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical specs")
	}
	if a.Procs < 2 || a.Procs > 4 || a.Blocks < 2 || a.Blocks > 5 || a.Rounds < 1 || a.Rounds > 3 {
		t.Fatalf("spec out of documented bounds: %+v", a)
	}
}

// At most one write per (round, block), and write values are unique: the
// invariants the reference model's outcome prediction depends on.
func TestGenLitmusWriteInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		s := GenLitmus(seed)
		writers := make(map[[2]int]bool)
		values := make(map[uint64]bool)
		for _, op := range s.Ops {
			if op.Kind != LitmusWrite {
				continue
			}
			k := [2]int{op.Round, op.Block}
			if writers[k] {
				t.Fatalf("seed %d: two writers for round %d block %d", seed, op.Round, op.Block)
			}
			writers[k] = true
			if values[op.Value] {
				t.Fatalf("seed %d: duplicate write value %d", seed, op.Value)
			}
			values[op.Value] = true
		}
	}
}

// RunLitmus uses the fault plan it is given, seed included: the same
// faulted spec under two fault seeds draws two different chaos streams.
// (A runner that re-derived the seed from the spec would make a persisted
// plan's seed dead weight, and both runs identical.)
func TestRunLitmusHonoursFaultSeed(t *testing.T) {
	pr, err := proto.LabelOf("SC")
	if err != nil {
		t.Fatal(err)
	}
	spec := GenLitmus(1)
	run := func(seed uint64) (uint64, int64) {
		fc := &faultinj.Config{Seed: seed, Drop: 0.02, Dup: 0.01, Delay: 0.05}
		events, cycles, err := RunLitmus(spec, pr, fc, LitmusRun{})
		if err != nil {
			t.Fatalf("fault seed %d: %v", seed, err)
		}
		return events, cycles
	}
	e1, c1 := run(1)
	e2, c2 := run(999)
	if e1 == e2 && c1 == c2 {
		t.Fatalf("fault seeds 1 and 999 both gave %d events, %d cycles: the plan's seed is ignored", e1, c1)
	}
}

// The broken-protocol canary: silently dropping writes to block 0 must be
// detected by the assert/cross-check oracles on a seeded batch of generated
// programs, and a failing program must minimize to a spec that still fails
// under the canary, fails no longer once any single op is removed, and
// passes on the honest kernel. (Persisting such specs is the soak farm's
// job; its canary pipeline test covers that half.)
func TestFuzzCanaryDetectsBrokenWrites(t *testing.T) {
	pr, err := proto.LabelOf("SC") // SC alone is enough for the canary
	if err != nil {
		t.Fatal(err)
	}
	canaryFails := func(s *LitmusSpec) bool {
		_, _, err := RunLitmus(s, pr, nil, LitmusRun{Canary: true})
		return err != nil
	}
	var failing *LitmusSpec
	seeds := rng.New(7)
	for i := 0; i < 8 && failing == nil; i++ {
		if s := GenLitmus(seeds.Uint64()); canaryFails(s) {
			failing = s
		}
	}
	if failing == nil {
		t.Fatal("broken kernel failed none of 8 generated programs; the cross-check oracle is dead")
	}
	min := MinimizeLitmus(failing, canaryFails)
	if len(min.Ops) == 0 || len(min.Ops) > len(failing.Ops) {
		t.Fatalf("minimized spec has %d ops, original %d", len(min.Ops), len(failing.Ops))
	}
	if !canaryFails(min) {
		t.Fatal("minimized spec does not reproduce the failure")
	}
	for i := range min.Ops {
		cand := *min
		cand.Ops = append(append([]LitmusOp(nil), min.Ops[:i]...), min.Ops[i+1:]...)
		if canaryFails(&cand) {
			t.Fatalf("spec not 1-minimal: still fails without op %d", i)
		}
	}
	// The honest kernel passes the same spec: the bug was in the canary's
	// broken protocol, not the program.
	if _, _, err := RunLitmus(min, pr, nil, LitmusRun{}); err != nil {
		t.Fatalf("honest replay of minimized spec failed: %v", err)
	}
}

// LitmusKind follows the repo's enum String() convention.
func TestLitmusKindString(t *testing.T) {
	cases := map[LitmusKind]string{
		LitmusRead:    "read",
		LitmusWrite:   "write",
		LitmusLockInc: "lockinc",
		LitmusKind(9): "LitmusKind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("LitmusKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// The minimizer never returns a passing spec and always shrinks or holds.
func TestMinimizeLitmus(t *testing.T) {
	s := GenLitmus(3)
	// Failure predicate: spec contains at least one lockinc.
	fails := func(c *LitmusSpec) bool {
		for _, op := range c.Ops {
			if op.Kind == LitmusLockInc {
				return true
			}
		}
		return false
	}
	if !fails(s) {
		t.Skip("seed 3 generated no lockinc ops")
	}
	min := MinimizeLitmus(s, fails)
	if len(min.Ops) != 1 || min.Ops[0].Kind != LitmusLockInc {
		t.Fatalf("minimizer kept %d ops: %+v", len(min.Ops), min.Ops)
	}
}
