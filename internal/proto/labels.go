package proto

import (
	"fmt"
	"strings"

	"dsisim/internal/core"
)

// Label is one protocol configuration under the name the paper's figures
// give it: a consistency model plus the DSI policy running on top of it.
// Every label-to-configuration mapping in the repository resolves through
// LabelOf, so a label means the same machine everywhere — the result
// cache keys cells by label alone and relies on that.
type Label struct {
	Name        string
	Consistency Consistency
	Policy      core.Policy
}

// FIFOEntries is the self-invalidation FIFO capacity the paper evaluates.
const FIFOEntries = 64

func newFIFO() core.Mechanism { return core.NewFIFO(FIFOEntries) }

func newNaiveFlush() core.Mechanism { return core.NaiveFlush{} }

func newHistory() *core.InvalHistory { return core.NewInvalHistory(64, 2) }

// labels is the one protocol table, in the order Labels lists it.
var labels = [...]Label{
	{Name: "SC", Consistency: SC},
	{Name: "W", Consistency: WC},
	{Name: "S", Consistency: SC,
		Policy: core.Policy{Identifier: core.States{}, UpgradeExemption: true}},
	{Name: "V", Consistency: SC,
		Policy: core.Policy{Identifier: core.Versions{}, UpgradeExemption: true}},
	{Name: "V-FIFO", Consistency: SC,
		Policy: core.Policy{Identifier: core.Versions{}, NewMechanism: newFIFO, UpgradeExemption: true}},
	{Name: "S-FIFO", Consistency: SC,
		Policy: core.Policy{Identifier: core.States{}, NewMechanism: newFIFO, UpgradeExemption: true}},
	{Name: "W+DSI", Consistency: WC,
		Policy: core.Policy{Identifier: core.Versions{}, TearOff: true}},
	{Name: "W+DSI-S", Consistency: WC,
		Policy: core.Policy{Identifier: core.States{}, TearOff: true}},
	{Name: "V-TO", Consistency: SC,
		Policy: core.Policy{Identifier: core.Versions{}, SCTearOff: true, UpgradeExemption: true}},
	{Name: "HIST", Consistency: SC,
		Policy: core.Policy{NewHistory: newHistory}},
	{Name: "V-naive", Consistency: SC,
		Policy: core.Policy{Identifier: core.Versions{}, NewMechanism: newNaiveFlush, UpgradeExemption: true}},
	{Name: "MIG", Consistency: SC,
		Policy: core.Policy{Migratory: true}},
	{Name: "MIG+V", Consistency: SC,
		Policy: core.Policy{Migratory: true, Identifier: core.Versions{}, UpgradeExemption: true}},
}

// Labels returns every protocol label: the paper's base protocols and DSI
// variants, then the ablation and related-work configurations.
func Labels() []Label { return append([]Label(nil), labels[:]...) }

// LabelOf resolves a protocol label name.
func LabelOf(name string) (Label, error) {
	for i := range labels {
		if labels[i].Name == name {
			return labels[i], nil
		}
	}
	names := make([]string, len(labels))
	for i, l := range labels {
		names[i] = l.Name
	}
	return Label{}, fmt.Errorf("unknown protocol %q (known: %s)", name, strings.Join(names, " "))
}
