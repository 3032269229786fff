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

// A machine no configuration can build is refused before any run, with an
// error the command prints under its name once; the boundary shapes run.
func TestMachineConfigBounds(t *testing.T) {
	cases := []struct {
		args []string
		want string // error line prefix; empty when the cell must run
	}{
		{[]string{"-procs", "65"}, "dsisim: machine: Processors 65 out of range: want 1 to 64"},
		{[]string{"-procs", "-1"}, "dsisim: machine: Processors -1 out of range: want 1 to 64"},
		{[]string{"-cachebytes", "1000"}, "dsisim: machine: cache: bad geometry {SizeBytes:1000 Assoc:4}: want a positive multiple of 128 bytes"},
		{[]string{"-cachebytes", "-4096"}, "dsisim: machine: cache: bad geometry {SizeBytes:-4096 Assoc:4}: want a positive multiple of 128 bytes"},
		{[]string{"-cachebytes", "98304"}, "dsisim: machine: cache: bad geometry {SizeBytes:98304 Assoc:4}: 768 sets, want a power of two"},
		{[]string{"-latency", "-5"}, "dsisim: machine: NetworkLatency -5 is negative"},
		{[]string{"-procs", "1", "-cachebytes", "128"}, ""},
		{[]string{"-procs", "64", "-latency", "0"}, ""},
	}
	for _, c := range cases {
		args := append([]string{"-workload", "prodcons", "-test"}, c.args...)
		var out bytes.Buffer
		err := run(args, &out)
		if c.want == "" {
			if err != nil {
				t.Errorf("dsisim %s: %v", strings.Join(args, " "), err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(errorLine(err), c.want) {
			t.Errorf("dsisim %s: got error %v, want a line starting %q", strings.Join(args, " "), err, c.want)
			continue
		}
		if strings.Contains(errorLine(err), "dsisim: dsisim:") {
			t.Errorf("dsisim %s: error line repeats the command name: %s", strings.Join(args, " "), errorLine(err))
		}
		if out.Len() != 0 {
			t.Errorf("dsisim %s: printed output before failing:\n%s", strings.Join(args, " "), out.String())
		}
	}
}
