package experiments

import (
	"testing"

	"dsisim/internal/workload"
)

// The traffic grid must run every generator × protocol cell clean, and the
// faulted variant must actually inject (and recover from) faults so the
// Recovery counters in the committed table mean something.
func TestTrafficGrid(t *testing.T) {
	m, err := TrafficGrid(fast())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload.TrafficNames() {
		for _, l := range TrafficProtocols {
			if m.Get(w, l).ExecTime == 0 {
				t.Fatalf("empty cell %s/%s", w, l)
			}
			if r := RecoveryOf(m.Get(w, l)); r.Injected != 0 {
				t.Fatalf("fault-free cell %s/%s reports %d injected faults", w, l, r.Injected)
			}
		}
	}

	fo := fast()
	fc := FaultConfigLossy
	fo.Faults = &fc
	fm, err := TrafficGrid(fo)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload.TrafficNames() {
		for _, l := range TrafficProtocols {
			if r := RecoveryOf(fm.Get(w, l)); r.Injected == 0 {
				t.Fatalf("faulted cell %s/%s injected nothing", w, l)
			}
		}
	}
}

// The skew sweep must cover every requested fraction and keep both arms
// passing as the writer share grows.
func TestZipfSkewSweep(t *testing.T) {
	tab, err := ZipfSkewSweep([]float64{0.125, 0.5}, fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("sweep has %d rows, want 2", len(tab.Rows))
	}
}

// The skew sweep's writer column names the machine's processor count in its
// header, as each row's writers/processors value does.
func TestZipfSkewSweepHeaderNamesProcessors(t *testing.T) {
	tab, err := ZipfSkewSweep([]float64{0.125}, fast()) // 8 processors
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Header[1]; got != "writers/8" {
		t.Errorf("header %q, want writers/8", got)
	}
	if got := tab.Rows[0][1]; got != "1/8" {
		t.Errorf("row %q, want 1/8", got)
	}
}
