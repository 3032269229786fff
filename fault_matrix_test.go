package dsisim

// Robustness gates for the fault-injection and hardened-protocol layer:
//
//   - The fault matrix runs drop/dup/delay plans against base and DSI
//     protocols on two workloads; every cell must terminate, pass the
//     machine's coherence audit (Run returns an error otherwise), and be
//     bit-identical when repeated with the same seed — fault plans draw
//     from their own seeded stream, so injected chaos is replayable.
//   - Scripted faults reproduce one historical race shape deterministically
//     (a delayed writeback racing the invalidation of its successor owner).
//   - The liveness watchdog must convert an unrecoverable loss into a
//     structured diagnostic instead of a silently hung or expired run.
//   - A zero-valued fault config must be indistinguishable from no config
//     at all: same results, no plan consulted.

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dsisim/internal/netsim"
)

// faultPlans are the probabilistic plans in the matrix. Rates are high
// enough that every cell actually injects faults at test scale (the
// fault counters are asserted nonzero) while still letting the bounded
// retry protocol converge.
var faultPlans = []struct {
	name string
	cfg  FaultConfig
}{
	{"drop", FaultConfig{Seed: 11, Drop: 0.03}},
	{"dup", FaultConfig{Seed: 12, Dup: 0.05}},
	{"delay", FaultConfig{Seed: 13, Delay: 0.2, Jitter: 64}},
	{"mixed", FaultConfig{Seed: 14, Drop: 0.02, Dup: 0.02, Delay: 0.1}},
}

// TestFaultMatrix is the robustness matrix: plan x protocol x workload.
// Each cell runs twice; the runs must agree on every observable field.
func TestFaultMatrix(t *testing.T) {
	for _, plan := range faultPlans {
		for _, protocol := range []Protocol{SC, V, WDSI} {
			for _, wl := range []string{"em3d", "ocean"} {
				t.Run(plan.name+"/"+string(protocol)+"/"+wl, func(t *testing.T) {
					cell := func() Result {
						fc := plan.cfg
						res, err := Run(Config{
							Workload:   wl,
							Scale:      ScaleTest,
							Protocol:   protocol,
							Processors: 8,
							Faults:     &fc,
						})
						if err != nil {
							t.Fatalf("faulted run failed: %v", err)
						}
						return res
					}
					first, second := cell(), cell()
					if first.Faults.Decisions == 0 {
						t.Fatal("fault plan made no decisions; the matrix cell tested nothing")
					}
					switch plan.name {
					case "drop", "mixed":
						if first.Faults.Dropped == 0 && first.Faults.Converted == 0 {
							t.Fatalf("drop plan injected nothing: %+v", first.Faults)
						}
					case "dup":
						if first.Faults.Duplicated == 0 && first.Faults.Converted == 0 {
							t.Fatalf("dup plan injected nothing: %+v", first.Faults)
						}
					case "delay":
						if first.Faults.Delayed == 0 {
							t.Fatalf("delay plan injected nothing: %+v", first.Faults)
						}
					}
					if !reflect.DeepEqual(first, second) {
						t.Errorf("same-seed faulted runs diverged:\nfirst:  %+v\nsecond: %+v", first, second)
					}
				})
			}
		}
	}
}

// TestScriptedWritebackRacesInvalidation pins the writeback/invalidation
// race as a deterministic regression: the first writeback is held in the
// network long past the point where the home has re-granted the block and
// started invalidating the new copies. Per-pair FIFO keeps the delayed WB
// ordered against its own (src, dst) traffic, but it now lands amid a later
// transaction's invalidation round; the hardened directory must neither
// mistake it for a stray nor double-apply it, and the run must still
// quiesce and audit clean.
func TestScriptedWritebackRacesInvalidation(t *testing.T) {
	fc := FaultConfig{
		Seed: 21,
		Rules: []FaultRule{
			{Kind: int(netsim.WB), Src: -1, Dst: -1, Nth: 1, Action: FaultDelay, Delay: 2500},
			{Kind: int(netsim.Inv), Src: -1, Dst: -1, Nth: 1, Action: FaultDrop},
		},
	}
	run := func() Result {
		cfg := fc
		res, err := Run(Config{
			Workload:   "barnes",
			Scale:      ScaleTest,
			Protocol:   SC,
			Processors: 8,
			// A small cache forces capacity evictions of dirty blocks, so
			// writebacks actually travel for the delay rule to catch.
			CacheBytes: 1024,
			Faults:     &cfg,
		})
		if err != nil {
			t.Fatalf("scripted run failed: %v", err)
		}
		return res
	}
	first, second := run(), run()
	if first.Faults.Scripted < 2 {
		t.Fatalf("scripted rules did not both fire: %+v", first.Faults)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("scripted-fault run is not reproducible")
	}
}

// TestWatchdogReportsUnrecoverableLoss drives the protocol into a genuine
// livelock — every invalidation is dropped, including retransmissions, so
// the retry cap must eventually trip — and requires the watchdog to fail
// with the structured liveness dump rather than hang or expire silently.
func TestWatchdogReportsUnrecoverableLoss(t *testing.T) {
	fc := FaultConfig{
		Rules: []FaultRule{
			{Kind: int(netsim.Inv), Src: -1, Dst: -1, Nth: 0, Action: FaultDrop},
		},
	}
	res, err := Run(Config{
		Workload:   "em3d",
		Scale:      ScaleTest,
		Protocol:   SC,
		Processors: 8,
		Faults:     &fc,
	})
	if err == nil {
		t.Fatal("run with every Inv dropped succeeded; expected a watchdog failure")
	}
	var gaveUp, watchdog, liveness bool
	for _, e := range res.Errors {
		if strings.Contains(e, "giving up") {
			gaveUp = true
		}
		if strings.Contains(e, "watchdog:") {
			watchdog = true
		}
		if strings.Contains(e, "liveness:") {
			liveness = true
		}
	}
	if !gaveUp || !watchdog || !liveness {
		t.Fatalf("missing diagnostic sections (gave-up=%v watchdog=%v liveness=%v) in:\n%s",
			gaveUp, watchdog, liveness, strings.Join(res.Errors, "\n"))
	}
}

// TestWatchdogListsEachStuckTransactionOnce takes the unrecoverable-loss cell
// above, which deadlocks with upgrades whose invalidations were lost, and
// requires each stuck transaction to be listed in exactly one Errors line,
// once as a node's open miss and once as a home's open transaction (the
// watchdog's dump), with no entry-level audit finding: the audit skips
// entry checks on mid-transaction state, where the directory legitimately
// disagrees with the caches.
func TestWatchdogListsEachStuckTransactionOnce(t *testing.T) {
	fc := FaultConfig{
		Rules: []FaultRule{
			{Kind: int(netsim.Inv), Src: -1, Dst: -1, Nth: 0, Action: FaultDrop},
		},
	}
	res, err := Run(Config{Workload: "em3d", Scale: ScaleTest, Protocol: SC, Processors: 8, Faults: &fc})
	if err == nil {
		t.Fatal("run with every Inv dropped succeeded; expected a deadlock")
	}
	stuck := regexp.MustCompile(`\b((?:node|home) \d+):? stuck .*\btxn (\d+)\b`)
	listed := map[string]int{}
	for _, e := range res.Errors {
		if strings.HasPrefix(e, "audit: block") {
			t.Errorf("entry check ran on a deadlocked system: %s", e)
		}
		if m := stuck.FindStringSubmatch(e); m != nil {
			listed[m[1]+" txn "+m[2]]++
		}
	}
	if len(listed) == 0 {
		t.Fatalf("no stuck transaction listed in:\n%s", strings.Join(res.Errors, "\n"))
	}
	for txn, n := range listed {
		if n != 1 {
			t.Errorf("%s listed in %d Errors lines, want 1", txn, n)
		}
	}
	if t.Failed() {
		t.Logf("errors:\n%s", strings.Join(res.Errors, "\n"))
	}
}

// TestWatchdogDumpOnExpiredBudget checks the other watchdog arm: an event
// budget that expires mid-run must carry the same structured dump.
func TestWatchdogDumpOnExpiredBudget(t *testing.T) {
	res, err := Run(Config{
		Workload:   "em3d",
		Scale:      ScaleTest,
		Protocol:   SC,
		Processors: 8,
		MaxSteps:   500,
	})
	if err == nil {
		t.Fatal("500-step run succeeded; expected the budget watchdog to fire")
	}
	joined := strings.Join(res.Errors, "\n")
	if !strings.Contains(joined, "watchdog: 500 events executed without quiescing") {
		t.Fatalf("missing budget-watchdog error in:\n%s", joined)
	}
	if !strings.Contains(joined, "liveness:") {
		t.Fatalf("budget watchdog fired without the liveness dump:\n%s", joined)
	}
}

// TestZeroFaultConfigIsInert: a pointer to a zero FaultConfig installs no
// plan; results must be bit-identical to a run with Faults nil, and the
// fault counters must stay zero.
func TestZeroFaultConfigIsInert(t *testing.T) {
	base := Config{Workload: "em3d", Scale: ScaleTest, Protocol: V, Processors: 8}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withZero := base
	withZero.Faults = &FaultConfig{}
	zeroed, err := Run(withZero)
	if err != nil {
		t.Fatal(err)
	}
	if zeroed.Faults.Decisions != 0 {
		t.Fatalf("zero fault config made %d decisions", zeroed.Faults.Decisions)
	}
	if !reflect.DeepEqual(plain, zeroed) {
		t.Error("zero fault config changed simulation results")
	}
}
