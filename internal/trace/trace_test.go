package trace

import (
	"bytes"
	"strings"
	"testing"

	"dsisim/internal/machine"
	"dsisim/internal/proto"
	"dsisim/internal/workload"
)

func record(t *testing.T, name string) (*Trace, machine.Result) {
	t.Helper()
	prog, err := workload.New(name, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, res := Record(machine.Config{Processors: 4, Consistency: proto.SC}, prog)
	if res.Failed() {
		t.Fatalf("recording failed: %s", res.Errors[0])
	}
	return tr, res
}

func TestRecordCapturesAllProcs(t *testing.T) {
	tr, _ := record(t, "sparse")
	if tr.Procs != 4 {
		t.Fatalf("procs = %d", tr.Procs)
	}
	per := tr.PerProc()
	for i, evs := range per {
		if len(evs) == 0 {
			t.Fatalf("proc %d recorded no events", i)
		}
		if evs[len(evs)-1].Kind != "halt" {
			t.Fatalf("proc %d stream does not end in halt: %s", i, evs[len(evs)-1].Kind)
		}
	}
	c := tr.Counts()
	if c["read"] == 0 || c["write"] == 0 || c["barrier"] == 0 {
		t.Fatalf("counts missing expected kinds: %v", c)
	}
}

func TestRoundTrip(t *testing.T) {
	tr, _ := record(t, "migratory")
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != tr.Workload || back.Procs != tr.Procs || len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip mismatch: %v vs %v", back, tr)
	}
	for i := range tr.Events {
		if back.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %v != %v", i, back.Events[i], tr.Events[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a trace\n",
		"dsitrace x procs=2 events=1\nbogus line\n",
		"dsitrace x procs=2 events=5\n0 read 20 0 0 0\n", // count mismatch
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("garbage %q accepted", c)
		}
	}
}

// TestReadValidation exercises each rejection path and checks the error names
// the offending line — the contract cmd/dsitrace relies on instead of letting
// a malformed trace panic deep inside the machine.
func TestReadValidation(t *testing.T) {
	hdr := "dsitrace x procs=2 events=1\n"
	cases := []struct {
		name, in, want string
	}{
		{"procs zero", "dsitrace x procs=0 events=0\n", "line 1"},
		{"procs over limit", "dsitrace x procs=65 events=0\n", "line 1"},
		{"negative events", "dsitrace x procs=2 events=-1\n", "line 1"},
		{"field count", hdr + "0 read 20 0 0\n", "line 2"},
		{"proc not a number", hdr + "x read 20 0 0 0\n", "line 2"},
		{"proc out of range", hdr + "2 read 20 0 0 0\n", "line 2"},
		{"proc negative", hdr + "-1 read 20 0 0 0\n", "line 2"},
		{"unknown kind", hdr + "0 jump 20 0 0 0\n", "line 2"},
		{"bad addr", hdr + "0 read zz 0 0 0\n", "line 2"},
		{"bad word", hdr + "0 read 20 x 0 0\n", "line 2"},
		{"negative cycles", hdr + "0 compute 0 0 -5 0\n", "line 2"},
		{"bad sync flag", hdr + "0 read 20 0 0 2\n", "line 2"},
		{"error on later line", hdr + "0 read 20 0 0 0\n0 read 20 0 0 9\n", "line 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("accepted %q", c.in)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %s", err, c.want)
			}
		})
	}
}

// TestReadToleratesBlankLines: a trailing newline (or blank separator lines)
// must not fail the event-count check.
func TestReadToleratesBlankLines(t *testing.T) {
	in := "dsitrace x procs=2 events=2\n0 read 20 0 0 0\n\n1 write 40 7 0 0\n\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 || tr.Events[1].Proc != 1 || tr.Events[1].Word != 7 {
		t.Fatalf("parsed %+v", tr.Events)
	}
}

func TestReplayRuns(t *testing.T) {
	tr, orig := record(t, "prodcons")
	cfg := machine.Config{Processors: tr.Procs, Consistency: proto.SC}
	res := machine.New(cfg).Run(NewReplay(tr))
	if res.Failed() {
		t.Fatalf("replay failed: %s", res.Errors[0])
	}
	if res.TotalTime == 0 {
		t.Fatal("replay did no work")
	}
	// Same machine, same stream: replay time tracks the original's total
	// time to within the warm-up accounting difference.
	if res.TotalTime < orig.TotalTime/2 || res.TotalTime > orig.TotalTime*2 {
		t.Fatalf("replay time %d wildly off original %d", res.TotalTime, orig.TotalTime)
	}
}

func TestReplayDeterministic(t *testing.T) {
	tr, _ := record(t, "em3d")
	run := func() machine.Result {
		return machine.New(machine.Config{Processors: tr.Procs}).Run(NewReplay(tr))
	}
	a, b := run(), run()
	if a.Failed() || a.TotalTime != b.TotalTime {
		t.Fatalf("replay nondeterministic: %d vs %d", a.TotalTime, b.TotalTime)
	}
}

func TestCountsCachedAcrossCalls(t *testing.T) {
	tr := &Trace{Procs: 1, Events: []Event{
		{Kind: "read"}, {Kind: "read"}, {Kind: "write"}, {Kind: "barrier"},
	}}
	c := tr.Counts()
	if c["read"] != 2 || c["write"] != 1 || c["barrier"] != 1 {
		t.Fatalf("counts = %v", c)
	}

	// Appending events shows up in the next call.
	tr.Events = append(tr.Events, Event{Kind: "read"})
	if c = tr.Counts(); c["read"] != 3 {
		t.Fatalf("counts stale after append: %v", c)
	}
}
