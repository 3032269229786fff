package proto

import (
	"testing"

	"dsisim/internal/core"
)

// NameOf names each label's configuration by the label (so no two labels
// configure the same machine) and each ablation policy by a name of its
// own: the result cache keys a cell's protocol by it.
func TestNameOf(t *testing.T) {
	taken := map[string]bool{}
	for _, l := range Labels() {
		if got := NameOf(l.Consistency, l.Policy); got != l.Name {
			t.Errorf("%s's configuration is named %q", l.Name, got)
		}
		taken[l.Name] = true
	}
	for _, p := range []core.Policy{
		{Identifier: core.Versions, FIFO: 4, UpgradeExemption: true},
		{Identifier: core.Versions, FIFO: 16, UpgradeExemption: true},
		{Identifier: core.Versions, FIFO: 256, UpgradeExemption: true},
		{Identifier: core.Always, UpgradeExemption: true},
		{Identifier: core.Versions},
	} {
		name := NameOf(SC, p)
		if taken[name] {
			t.Errorf("policy %+v is named %q, a name already taken", p, name)
		}
		taken[name] = true
	}
}
