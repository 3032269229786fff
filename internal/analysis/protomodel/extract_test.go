package protomodel

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dsisim/internal/analysis"
)

// protoExtraction is the one extraction of the real proto package that
// TestExtractProtoClean, TestExtractModelShape and TestGoldenStable share:
// loading and walking the package is most of this package's test time.
var protoExtraction struct {
	once  sync.Once
	pkg   *analysis.Package
	model *Model
	probs []Problem
	err   error
}

// extractProto loads the real proto package through the export-data loader
// and extracts its model, once per test binary. Callers must not change the
// model.
func extractProto(t *testing.T) (*analysis.Package, *Model, []Problem) {
	t.Helper()
	x := &protoExtraction
	x.once.Do(func() {
		pkgs, err := analysis.NewLoader("../../..").Load("./internal/proto")
		if err != nil {
			x.err = fmt.Errorf("loading proto: %v", err)
			return
		}
		for _, p := range pkgs {
			if p.Path == ProtoPackage {
				x.pkg = p
				x.model, x.probs = ExtractPackage(p)
				return
			}
		}
		x.err = fmt.Errorf("proto package not among %d loaded packages", len(pkgs))
	})
	if x.err != nil {
		t.Fatal(x.err)
	}
	return x.pkg, x.model, x.probs
}

// TestExtractProtoClean extracts the model from the real protocol sources and
// requires a finding-free run: every (controller, trigger, state) pair is
// handled, waived, or infeasible, with no dead arms or stale waivers.
func TestExtractProtoClean(t *testing.T) {
	p, model, probs := extractProto(t)
	for _, pr := range probs {
		t.Errorf("%s: %s", p.Fset.Position(pr.Pos), pr.Msg)
	}
	if model == nil {
		t.Fatal("no model extracted")
	}
	if got := len(model.Controllers); got != 2 {
		t.Fatalf("controllers = %d, want 2", got)
	}
}

// TestExtractModelShape checks structural invariants of the extracted model:
// full (trigger, state) coverage per controller and well-formed transitions.
func TestExtractModelShape(t *testing.T) {
	_, model, _ := extractProto(t)
	if model == nil {
		t.Fatal("no model extracted")
	}
	if len(model.Kinds) == 0 {
		t.Fatal("empty kind vocabulary")
	}
	kinds := make(map[string]bool, len(model.Kinds))
	for _, k := range model.Kinds {
		kinds[k] = true
	}
	for _, c := range model.Controllers {
		if c.Name != "dir" && c.Name != "cache" {
			t.Errorf("unexpected controller %q", c.Name)
		}
		states := make(map[string]bool, len(c.States))
		for _, s := range c.States {
			states[s] = true
		}
		seen := make(map[[2]string]bool)
		var handled int
		for _, tr := range c.Transitions {
			key := [2]string{tr.Trigger, tr.State}
			if seen[key] {
				t.Errorf("%s: duplicate transition (%s, %s)", c.Name, tr.Trigger, tr.State)
			}
			seen[key] = true
			if !states[tr.State] {
				t.Errorf("%s: transition state %q not in vocabulary", c.Name, tr.State)
			}
			for _, n := range tr.Next {
				if !states[n] {
					t.Errorf("%s: (%s, %s) next state %q not in vocabulary", c.Name, tr.Trigger, tr.State, n)
				}
			}
			for _, s := range tr.Sends {
				if !kinds[s] {
					t.Errorf("%s: (%s, %s) sends unknown kind %q", c.Name, tr.Trigger, tr.State, s)
				}
			}
			if tr.Kind == Handled {
				handled++
			}
			if tr.Kind == Waived && tr.Reason == ReasonNone {
				t.Errorf("%s: (%s, %s) waived without a reason", c.Name, tr.Trigger, tr.State)
			}
		}
		// Every message kind must appear for every state.
		for _, kn := range model.Kinds {
			for _, s := range c.States {
				if !seen[[2]string{kn, s}] {
					t.Errorf("%s: missing transition (%s, %s)", c.Name, kn, s)
				}
			}
		}
		if handled == 0 {
			t.Errorf("%s: no handled transitions at all", c.Name)
		}
	}
}

// TestGoldenStable verifies the committed golden matches a fresh extraction,
// so docs/protomodel.json cannot drift from the sources.
func TestGoldenStable(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "..", "docs", "protomodel.json"))
	if err != nil {
		t.Fatalf("reading golden (regenerate with dsivet -run protomodel -model docs/protomodel.json): %v", err)
	}
	_, model, probs := extractProto(t)
	if model == nil {
		t.Fatalf("no model extracted (%d problems)", len(probs))
	}
	fresh, err := model.Render()
	if err != nil {
		t.Fatalf("rendering: %v", err)
	}
	if string(fresh) != string(golden) {
		t.Fatalf("docs/protomodel.json is stale: regenerate with `go run ./cmd/dsivet -run protomodel -model docs/protomodel.json ./...`")
	}
	// The golden must round-trip through Parse.
	parsed, err := Parse(golden)
	if err != nil {
		t.Fatalf("parsing golden: %v", err)
	}
	if parsed.Controller("dir") == nil || parsed.Controller("cache") == nil {
		t.Fatal("parsed golden missing a controller table")
	}
}
