package soak

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dsisim/internal/workload"
)

// A litmus spec — program, protocol, fault plan with its seed — survives
// SaveSpec/LoadSpec exactly.
func TestSpecLitmusRoundTrip(t *testing.T) {
	cell := LitmusSpace(1).Cell(99, 1) // the lossy template
	spec := specOf(cell)
	spec.Err = "SC: pinned"
	if !reflect.DeepEqual(spec.Litmus, workload.GenLitmus(cell.Seed)) {
		t.Fatal("litmus cell's spec does not hold the program its seed generates")
	}
	if spec.Faults == nil || spec.Faults.Seed != FaultSeedOf(cell.Seed) {
		t.Fatalf("fixture carries no seeded fault plan: %+v", spec.Faults)
	}
	if spec.Faults == cell.Template.Faults {
		t.Fatal("the cell's seeded plan aliases its template")
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := SaveSpec(spec, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, got) {
		t.Fatalf("round-trip mismatch:\n%+v\n%+v", spec, got)
	}
}

// LoadSpec rejects every spec whose replay could not run, or that names a
// field the format does not have, with an error naming the bad field,
// instead of letting Replay index out of range, panic building the machine,
// or replay a cell its author did not mean.
func TestLoadSpecRejectsInvalid(t *testing.T) {
	const litmus = `"workload":"litmus","protocol":"SC","seed":1`
	const registry = `"soak":1,"workload":"zipf","protocol":"SC","seed":1`
	cases := []struct {
		name, body, want string
	}{
		{"not json", `{not json`, "invalid character"},
		{"bare litmus spec", `{"seed":1,"procs":2,"blocks":2,"rounds":1,"ops":[]}`, `unknown field "procs"`},
		{"data after the spec", `{"soak":1,` + litmus + `,"litmus":{"seed":1,"procs":1,"blocks":1,"rounds":1}}}`, "data after the spec"},
		{"future version", `{"soak":2,` + litmus + `}`, "unsupported soak spec version 2"},
		{"unknown protocol", `{"soak":1,"workload":"litmus","protocol":"NOPE","seed":1}`, `unknown protocol "NOPE"`},
		{"unknown fault action", `{` + registry + `,"faults":{"rules":[{"kind":1,"src":-1,"dst":-1,"action":"melt"}]}}`, `unknown fault action "melt"`},
		{"litmus without program", `{"soak":1,` + litmus + `}`, "without a program"},
		{"litmus zero procs", `{"soak":1,` + litmus + `,"litmus":{"seed":1,"procs":0,"blocks":2,"rounds":1}}`, "has 0 procs"},
		{"litmus too many procs", `{"soak":1,` + litmus + `,"litmus":{"seed":1,"procs":65,"blocks":2,"rounds":1}}`, "has 65 procs"},
		{"litmus zero rounds", `{"soak":1,` + litmus + `,"litmus":{"seed":1,"procs":2,"blocks":2,"rounds":0}}`, "0 rounds"},
		{"litmus op proc", `{"soak":1,` + litmus + `,"litmus":{"seed":1,"procs":2,"blocks":2,"rounds":1,"ops":[{"proc":5,"round":0,"kind":0,"block":0}]}}`, "litmus op 0 out of range"},
		{"litmus op block", `{"soak":1,` + litmus + `,"litmus":{"seed":1,"procs":2,"blocks":2,"rounds":1,"ops":[{"proc":0,"round":0,"kind":0,"block":9}]}}`, "litmus op 0 out of range"},
		{"litmus op round", `{"soak":1,` + litmus + `,"litmus":{"seed":1,"procs":2,"blocks":2,"rounds":1,"ops":[{"proc":0,"round":0,"kind":2},{"proc":1,"round":3,"kind":0,"block":1}]}}`, "litmus op 1 out of range"},
		{"litmus op kind", `{"soak":1,` + litmus + `,"litmus":{"seed":1,"procs":2,"blocks":2,"rounds":1,"ops":[{"proc":0,"round":0,"kind":7,"block":0}]}}`, "litmus op 0 out of range"},
		{"registry negative procs", `{` + registry + `,"procs":-3}`, `unknown field "procs"`},
		{"registry too many procs", `{` + registry + `,"procs":65}`, `unknown field "procs"`},
		{"registry cache geometry", `{` + registry + `,"cache_bytes":7}`, `unknown field "cache_bytes"`},
		{"registry scale", `{` + registry + `,"scale":"huge"}`, `unknown field "scale"`},
		{"registry machine shape", `{` + registry + `,"procs":16}`, `unknown field "procs"`},
		{"misspelled faults", `{` + registry + `,"fualts":{"drop":0.5}}`, `unknown field "fualts"`},
		{"unknown fault field", `{` + registry + `,"faults":{"drop":0.5,"dorp":0.5}}`, `unknown field "dorp"`},
		{"fault kind beyond int range", `{` + registry + `,"faults":{"drop_by_kind":{"9223372036854775807":0.5}}}`, "dropkind 9223372036854775807 outside [0, 18)"},
		{"fault kind the network lacks", `{` + registry + `,"faults":{"drop_by_kind":{"18":0.5}}}`, "dropkind 18 outside [0, 18)"},
		{"fault kind probability", `{` + registry + `,"faults":{"drop_by_kind":{"3":1.5}}}`, "dropkind 3 probability 1.5 outside [0, 1]"},
		{"fault drop above one", `{` + registry + `,"faults":{"drop":7}}`, "drop probability 7 outside [0, 1]"},
		{"fault negative delay", `{` + registry + `,"faults":{"delay":-0.1}}`, "delay probability -0.1 outside [0, 1]"},
		{"fault negative jitter", `{` + registry + `,"faults":{"jitter":-5}}`, "negative jitter -5"},
		{"fault negative link node", `{` + registry + `,"faults":{"drop_by_link":[{"src":-1,"dst":2,"prob":0.5}]}}`, "droplink -1-2: negative node"},
		{"fault link listed twice", `{` + registry + `,"faults":{"drop_by_link":[{"src":3,"dst":2,"prob":0.5},{"src":0,"dst":1,"prob":1},{"src":3,"dst":2,"prob":0.25}]}}`, "droplink 3-2 listed twice"},
	}
	dir := t.TempDir()
	for i, c := range cases {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSpec(path)
		if err == nil {
			t.Errorf("case %d (%s): accepted %s", i, c.name, c.body)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), path) {
			t.Errorf("case %d (%s): error %q does not name the path and %q", i, c.name, err, c.want)
		}
	}

	// The boundaries themselves load: default and maximal shapes.
	for _, body := range []string{
		`{` + registry + `}`,
		`{` + registry + `,"faults":{"drop":1,"drop_by_kind":{"17":0.5},"drop_by_link":[{"src":0,"dst":0,"prob":1}]}}`,
		`{"soak":1,` + litmus + `,"litmus":{"seed":1,"procs":1,"blocks":1,"rounds":1,"ops":[{"proc":0,"round":0,"kind":1,"block":0,"value":1}]}}`,
	} {
		path := filepath.Join(dir, "good.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSpec(path); err != nil {
			t.Errorf("rejected valid spec %s: %v", body, err)
		}
	}
}
