package soak

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dsisim/internal/machine"
	"dsisim/internal/proto"
	"dsisim/internal/workload"
)

// marshalVerdicts canonicalizes a verdict set for bit-identity comparison.
func marshalVerdicts(t *testing.T, vs []Verdict) []byte {
	t.Helper()
	data, err := json.Marshal(vs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A clean tree sweeps the test space without failures, and two independent
// runs of the same campaign produce bit-identical verdict sets.
func TestRunCleanAndDeterministic(t *testing.T) {
	o := Options{Space: testSpace(), Seed: 11, Workers: 4}
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != 0 {
		t.Fatalf("clean tree produced %d failures: %+v", a.Failures, a.Verdicts)
	}
	if a.Ran != o.Space.Cells() {
		t.Fatalf("ran %d of %d cells", a.Ran, o.Space.Cells())
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Verdicts, b.Verdicts) {
		t.Fatal("two runs of the same campaign diverged")
	}
	if string(marshalVerdicts(t, a.Verdicts)) != string(marshalVerdicts(t, b.Verdicts)) {
		t.Fatal("verdict JSON not bit-identical across runs")
	}
}

// A second sitting of a campaign in the same process runs on the machines
// the first one parked: none of its cells, litmus ones included, builds a
// machine, so the whole sitting allocates less than one 2-processor machine
// does (about 1.3 MB at the default geometry).
func TestWarmSittingBuildsNoMachine(t *testing.T) {
	o := Options{
		Space: Space{
			Workloads: []string{"em3d", LitmusWorkload},
			Protocols: ProtocolsByName("SC", "V", "W+DSI"),
			Templates: DefaultTemplates(),
		},
		Seed:    5,
		Workers: 1,
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	sitting := func() {
		rep, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failures != 0 || rep.Ran != o.Space.Cells() {
			t.Fatalf("sitting ran %d of %d cells with %d failures", rep.Ran, o.Space.Cells(), rep.Failures)
		}
	}
	machineBytes := allocated(func() { machine.New(machine.Config{Processors: 2}) })
	sitting()
	warm := allocated(sitting)
	t.Logf("warm sitting of %d cells: %d bytes; one 2-processor machine: %d bytes", o.Space.Cells(), warm, machineBytes)
	if warm >= machineBytes {
		t.Fatalf("warm sitting allocated %d bytes, not under one 2-processor machine's %d", warm, machineBytes)
	}
}

// Shards partition the campaign: the union of per-shard verdicts equals the
// unsharded run's verdicts exactly.
func TestRunShardsUnionMatchesUnsharded(t *testing.T) {
	o := Options{Space: testSpace(), Seed: 23, Workers: 2}
	whole, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	var union []Verdict
	for i := 1; i <= 3; i++ {
		so := o
		so.Shard = Shard{Index: i, Count: 3}
		rep, err := Run(so)
		if err != nil {
			t.Fatal(err)
		}
		union = append(union, rep.Verdicts...)
	}
	sortVerdicts(union)
	if !reflect.DeepEqual(whole.Verdicts, union) {
		t.Fatal("shard union diverged from unsharded campaign")
	}
}

// The checkpoint/resume acceptance test: run a campaign partway, truncate
// the journal at an arbitrary byte (tearing its final line), resume, and
// require the union of verdicts to be bit-identical to an uninterrupted
// run of the same campaign.
func TestJournalResumeAfterTruncationBitIdentical(t *testing.T) {
	dir := t.TempDir()
	o := Options{Space: testSpace(), Seed: 42, Workers: 2}

	// The uninterrupted reference run.
	ref, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}

	// The interrupted run: stop after 9 cells, then tear the journal.
	jpath := filepath.Join(dir, "soak.jsonl")
	io := o
	io.Journal = jpath
	io.MaxCells = 9
	part, err := Run(io)
	if err != nil {
		t.Fatal(err)
	}
	if part.Ran != 9 || part.Drained != o.Space.Cells()-9 {
		t.Fatalf("partial sitting ran %d, drained %d", part.Ran, part.Drained)
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(data) - 17 // mid-verdict: the kill landed mid-append
	if err := os.WriteFile(jpath, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume to completion.
	ro := io
	ro.MaxCells = 0
	ro.Resume = true
	res, err := Run(ro)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered != 8 {
		t.Fatalf("recovered %d verdicts from the torn journal, want 8 (9 minus the torn line)", res.Recovered)
	}
	if res.Ran != o.Space.Cells()-8 {
		t.Fatalf("resume ran %d cells, want %d", res.Ran, o.Space.Cells()-8)
	}
	if string(marshalVerdicts(t, res.Verdicts)) != string(marshalVerdicts(t, ref.Verdicts)) {
		t.Fatal("resumed union not bit-identical to the uninterrupted run")
	}

	// The journal on disk agrees too.
	onDisk, err := ReadVerdicts(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, ref.Verdicts) {
		t.Fatal("journal on disk diverged from the uninterrupted run")
	}
}

// Resuming with changed campaign parameters is an error, not a silent
// restart: the header hash pins the campaign identity.
func TestJournalResumeRejectsChangedParams(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "soak.jsonl")
	o := Options{Space: testSpace(), Seed: 5, Workers: 2, Journal: jpath, MaxCells: 2}
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	o.Seed = 6
	o.Resume = true
	o.MaxCells = 0
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("resume with changed seed: err = %v, want campaign-mismatch error", err)
	}
}

// A journal whose header itself is torn restarts the campaign from scratch
// instead of erroring out.
func TestJournalTornHeaderRestarts(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "soak.jsonl")
	if err := os.WriteFile(jpath, []byte(`{"soak_journal":1,"par`), 0o644); err != nil {
		t.Fatal(err)
	}
	o := Options{Space: testSpace(), Seed: 5, Workers: 2, Journal: jpath, Resume: true, MaxCells: 1}
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 0 || rep.Ran != 1 {
		t.Fatalf("torn header: recovered %d, ran %d", rep.Recovered, rep.Ran)
	}
}

// The end-to-end failure pipeline: a canary-broken kernel fails litmus
// cells; triage classifies them deterministic, minimizes ops and fault
// rules jointly, persists replayable specs into the corpus, and the specs
// replay clean on the honest kernel while still failing under the canary —
// and failing no longer once any single op is removed.
func TestRunCanaryFailurePipeline(t *testing.T) {
	dir := t.TempDir()
	o := Options{
		Space: Space{
			Workloads: []string{LitmusWorkload},
			Protocols: ProtocolsByName("SC"),
			Templates: []Template{DefaultTemplates()[1]}, // lossy: gives the rule/knob minimizer something to shrink
			Reps:      6,
		},
		Seed:    77,
		Workers: 2,
		Corpus:  dir,
		canary:  true,
	}
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Fatal("canary-broken kernel produced no failures; the oracle pipeline is dead")
	}
	checked := 0
	for _, v := range rep.Verdicts {
		if v.Status != StatusFail {
			continue
		}
		if v.Class != ClassDeterministic {
			t.Fatalf("canary failure classified %q, want deterministic: %+v", v.Class, v)
		}
		if v.Spec == "" {
			t.Fatalf("deterministic failure not persisted: %+v", v)
		}
		spec, err := LoadSpec(v.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Litmus == nil || len(spec.Litmus.Ops) != v.MinOps || v.MinOps == 0 {
			t.Fatalf("spec ops %d disagree with verdict MinOps %d", len(spec.Litmus.Ops), v.MinOps)
		}
		// The persisted spec still fails under the canary, and is 1-minimal:
		// removing any single op makes the failure go away.
		pr, err := proto.LabelOf(spec.Protocol)
		if err != nil {
			t.Fatal(err)
		}
		canaryFails := func(s *workload.LitmusSpec) bool {
			_, _, err := workload.RunLitmus(s, pr, spec.Faults, workload.LitmusRun{Canary: true})
			return err != nil
		}
		if !canaryFails(spec.Litmus) {
			t.Fatalf("%s does not reproduce its failure under the canary", v.Spec)
		}
		for i := range spec.Litmus.Ops {
			cand := *spec.Litmus
			cand.Ops = append(append([]workload.LitmusOp(nil), spec.Litmus.Ops[:i]...), spec.Litmus.Ops[i+1:]...)
			if canaryFails(&cand) {
				t.Fatalf("%s not 1-minimal: still fails without op %d", v.Spec, i)
			}
		}
		// Honest replay passes — the bug was the canary's, not the spec's.
		if err := spec.Replay(nil); err != nil {
			t.Fatalf("honest replay of %s failed: %v", v.Spec, err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no failing verdicts carried specs")
	}
	// The corpus directory holds exactly the persisted specs.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != checked {
		t.Fatalf("corpus holds %d files, verdicts reference %d", len(ents), checked)
	}
}

// Known-seed regression: a litmus campaign over the full protocol ×
// fault-plan matrix must come back clean on the current tree (the bounded
// form of `dsibench -fuzz 200 -soakseed 1`).
func TestLitmusSpaceKnownSeedClean(t *testing.T) {
	o := Options{Space: LitmusSpace(12), Seed: 1, Workers: 2}
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != o.Space.Cells() {
		t.Fatalf("ran %d cells, want %d", rep.Ran, o.Space.Cells())
	}
	if rep.Failures != 0 {
		for _, v := range rep.Verdicts {
			if v.Status != StatusOK {
				t.Errorf("cell %d %s/%s seed %016x: %s", v.Cell, v.Protocol, v.Template, v.Seed, v.Err)
			}
		}
		t.Fatalf("clean tree produced %d litmus failures", rep.Failures)
	}
}

// Aggregate folds verdicts into one row per group plus a totals row, in
// cell order.
func TestAggregate(t *testing.T) {
	vs := []Verdict{
		{Cell: 0, Workload: "zipf", Protocol: "SC", Template: "none", Status: StatusOK, Events: 10, Cycles: 100},
		{Cell: 1, Workload: "zipf", Protocol: "SC", Template: "none", Status: StatusFail, Events: 4, Cycles: 40},
		{Cell: 2, Workload: "litmus", Protocol: "V", Template: "lossy", Status: StatusOK, Events: 6, Cycles: 60},
	}
	tab := Aggregate(vs)
	if len(tab.Rows) != 3 { // two groups + total
		t.Fatalf("got %d rows, want 3:\n%s", len(tab.Rows), tab.Render())
	}
	if tab.Rows[0][0] != "zipf" || tab.Rows[0][3] != "2" || tab.Rows[0][5] != "1" {
		t.Fatalf("zipf row wrong: %v", tab.Rows[0])
	}
	if tab.Rows[2][0] != "TOTAL" || tab.Rows[2][3] != "3" || tab.Rows[2][6] != "20" {
		t.Fatalf("total row wrong: %v", tab.Rows[2])
	}
}

// A Stop signal drains the sitting early: in-flight cells finish and are
// journaled; unclaimed cells stay pending for the next sitting.
func TestRunStopDrains(t *testing.T) {
	stop := make(chan struct{})
	close(stop) // stop before any cell is claimed
	jpath := filepath.Join(t.TempDir(), "soak.jsonl")
	o := Options{Space: testSpace(), Seed: 3, Workers: 2, Journal: jpath, Stop: stop}
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 0 || rep.Drained != o.Space.Cells() {
		t.Fatalf("pre-closed stop: ran %d, drained %d", rep.Ran, rep.Drained)
	}
	// The journal still checkpointed a valid (empty) campaign: resume runs
	// everything.
	o.Stop = nil
	o.Resume = true
	rep, err = Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 0 || rep.Ran != o.Space.Cells() {
		t.Fatalf("resume after drain: recovered %d, ran %d", rep.Recovered, rep.Ran)
	}
}

// Negative sitting bounds are errors, returned before anything runs or any
// journal is opened, not the zero values' "all cells, GOMAXPROCS workers, no
// time bound".
func TestRunRejectsNegativeBounds(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		want string
	}{
		{"cells", Options{MaxCells: -5}, "soak: MaxCells -5 is negative"},
		{"workers", Options{Workers: -2}, "soak: Workers -2 is negative"},
		{"duration", Options{Duration: -time.Second}, "soak: Duration -1s is negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "soak.jsonl")
			c.o.Space, c.o.Journal = testSpace(), jpath
			rep, err := Run(c.o)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Run: report %+v, error %v; want an error containing %q", rep, err, c.want)
			}
			if _, statErr := os.Stat(jpath); !os.IsNotExist(statErr) {
				t.Fatalf("journal touched before the bounds were checked: %v", statErr)
			}
		})
	}
}

// TestGenerateCorpus regenerates the committed failure corpus when
// SOAK_CORPUS_DIR is set:
//
//	SOAK_CORPUS_DIR=$PWD/testdata/soak-corpus go test -run TestGenerateCorpus ./internal/soak
//
// It runs a small canary-broken campaign (the write-dropping kernel of
// workload.LitmusRun.Canary) so the triage pipeline produces minimized,
// replayable specs; on the honest tree those specs replay clean, which is
// exactly what the repo-level corpus test pins forever. Skipped in normal
// test runs.
func TestGenerateCorpus(t *testing.T) {
	dir := os.Getenv("SOAK_CORPUS_DIR")
	if dir == "" {
		t.Skip("set SOAK_CORPUS_DIR to regenerate the committed corpus")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Options{
		Space: Space{
			Workloads: []string{LitmusWorkload},
			Protocols: ProtocolsByName("SC", "V", "W+DSI"),
			Templates: []Template{DefaultTemplates()[0], DefaultTemplates()[1]},
			Reps:      4,
		},
		Seed:    9,
		Workers: 2,
		Corpus:  dir,
		canary:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, v := range rep.Verdicts {
		if v.Spec != "" {
			t.Logf("pinned %s (%d ops, %d rules): %s", v.Spec, v.MinOps, v.MinRules, v.Err)
			n++
		}
	}
	if n == 0 {
		t.Fatal("canary campaign produced no corpus specs")
	}
}

// sortVerdicts orders a verdict slice by cell index.
func sortVerdicts(vs []Verdict) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j-1].Cell > vs[j].Cell; j-- {
			vs[j-1], vs[j] = vs[j], vs[j-1]
		}
	}
}
