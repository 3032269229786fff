package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dsisim/internal/machine"
	"dsisim/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWriteChromeGolden pins the Chrome trace_event output of a deterministic
// micro run byte for byte. The export format is a documented stability
// surface (docs/OBSERVABILITY.md); regenerate deliberately with
//
//	go test ./internal/obs -run WriteChromeGolden -update
func TestWriteChromeGolden(t *testing.T) {
	s := obs.NewSink()
	res := machine.New(microConfig(s)).Run(pingPong())
	if res.Failed() {
		t.Fatalf("run failed: %s", res.Errors[0])
	}

	var got bytes.Buffer
	if err := s.WriteChrome(&got); err != nil {
		t.Fatal(err)
	}

	// The output must be valid JSON with the trace_event envelope regardless
	// of the golden comparison.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got.Bytes(), &doc); err != nil {
		t.Fatalf("exporter wrote invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
	}
	for _, ph := range []string{"M", "X", "s", "f", "b", "e"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in export (got %v)", ph, phases)
		}
	}
	if phases["s"] != phases["f"] {
		t.Errorf("unbalanced flow arrows: %d starts, %d finishes", phases["s"], phases["f"])
	}
	if phases["b"] != phases["e"] {
		t.Errorf("unbalanced txn spans: %d begins, %d ends", phases["b"], phases["e"])
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, got.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("chrome export changed (%d bytes, golden %d). If intentional, regenerate with -update.",
			got.Len(), len(want))
	}
}
