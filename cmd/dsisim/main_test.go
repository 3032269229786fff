package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// corpusSpec returns one committed soak-corpus spec.
func corpusSpec(t *testing.T) string {
	t.Helper()
	specs, err := filepath.Glob("../../testdata/soak-corpus/*.json")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no corpus specs (%v)", err)
	}
	return specs[0]
}

// Flags the run would ignore, and names it cannot resolve, fail with an
// error that names them.
func TestRejectsFlagsItWouldIgnore(t *testing.T) {
	spec := corpusSpec(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-replay", spec, "-workload", "ocean"}, "-workload does not apply with -replay"},
		{[]string{"-replay", spec, "-protocol", "V"}, "-protocol does not apply with -replay"},
		{[]string{"-replay", spec, "-procs", "8"}, "-procs does not apply with -replay"},
		{[]string{"-replay", spec, "-cachebytes", "2048"}, "-cachebytes does not apply with -replay"},
		{[]string{"-replay", spec, "-latency", "50"}, "-latency does not apply with -replay"},
		{[]string{"-replay", spec, "-test"}, "-test does not apply with -replay"},
		{[]string{"-replay", spec, "-faults", "drop=0.1"}, "-faults does not apply with -replay"},
		{[]string{"-replay", spec, "-cache"}, "-cache does not apply with -replay"},
		{[]string{"-replay", spec, "-cachemb", "8"}, "-cachemb does not apply with -replay"},
		{[]string{"-test", "-events", "-kinds", "msg-send,bogus"}, `unknown event kind "bogus" (known: msg-send, msg-recv,`},
		{[]string{"-test", "-blocks", "-cache"}, "-cache cannot combine with -events, -blocks or -chrome"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("dsisim %s: got error %v, want one containing %q", strings.Join(c.args, " "), err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("dsisim %s: printed output before failing:\n%s", strings.Join(c.args, " "), out.String())
		}
	}
}

// A replayed corpus cell carries the sink: its event stream prints, and
// the verdict still follows.
func TestReplayWithEvents(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-replay", corpusSpec(t), "-events", "-limit", "5"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	events := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "[") {
			events++
		}
	}
	if events != 5 {
		t.Errorf("printed %d event lines, want 5:\n%s", events, out.String())
	}
	if last := lines[len(lines)-1]; last != "ok   cell replays clean" {
		t.Errorf("last line %q, want the clean verdict:\n%s", last, out.String())
	}
}
