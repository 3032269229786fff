package dsisim

// The soak failure corpus is a one-way ratchet: every spec under
// testdata/soak-corpus/ is a minimized campaign cell that once demonstrated
// a protocol failure (see the corpus README and docs/FAULTS.md §6), and on
// the honest tree every one of them must replay clean, forever. A failure
// here means a pinned bug has come back.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsisim/internal/soak"
)

const soakCorpusDir = "testdata/soak-corpus"

func TestSoakCorpusReplaysClean(t *testing.T) {
	ents, err := os.ReadDir(soakCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	specs := 0
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		specs++
		path := filepath.Join(soakCorpusDir, ent.Name())
		t.Run(ent.Name(), func(t *testing.T) {
			spec, err := soak.LoadSpec(path)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Err == "" {
				t.Errorf("%s records no pinned failure; corpus entries document what they once caught", path)
			}
			if err := spec.Replay(nil); err != nil {
				t.Fatalf("pinned failure regressed: %v\n(reproduce: go run ./cmd/dsisim -replay %s)", err, path)
			}
		})
	}
	if specs == 0 {
		t.Fatalf("no specs in %s; the corpus ratchet is empty", soakCorpusDir)
	}
}
