package determinism_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dsisim/internal/analysis/analysistest"
	"dsisim/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	a := determinism.New(func(path string) bool { return path == "a" })
	analysistest.Run(t, filepath.Join("testdata", "a"), a)
}

// TestNonSimPackageSkipped checks that the same fixture is accepted wholesale
// when the package is not classified as simulation code.
func TestNonSimPackageSkipped(t *testing.T) {
	a := determinism.New(func(path string) bool { return false })
	dir := filepath.Join("testdata", "skip")
	analysistest.Run(t, dir, a)
}

// TestDefaultSimPackagesCoverMachine checks that every internal package the
// simulated machine is built from is on DefaultSimPackages, so a package
// that starts feeding Result fields cannot slip past the check.
func TestDefaultSimPackagesCoverMachine(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "dsisim/internal/machine").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	listed := make(map[string]bool, len(determinism.DefaultSimPackages))
	for _, p := range determinism.DefaultSimPackages {
		listed[p] = true
	}
	for _, p := range strings.Fields(string(out)) {
		if !strings.HasPrefix(p, "dsisim/internal/") {
			continue
		}
		if !listed[p] {
			t.Errorf("%s builds the machine but is not on determinism.DefaultSimPackages", p)
		}
	}
}
