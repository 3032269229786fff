package proto

import (
	"fmt"
	"strings"

	"dsisim/internal/core"
)

// Label is one protocol configuration under the name the paper's figures
// give it: a consistency model plus the DSI policy running on top of it.
// Every label-to-configuration mapping in the repository resolves through
// LabelOf, so a label means the same machine everywhere, and NameOf maps a
// label's configuration back to its name.
type Label struct {
	Name        string
	Consistency Consistency
	Policy      core.Policy
}

// FIFOEntries is the self-invalidation FIFO capacity the paper evaluates.
const FIFOEntries = 64

// historyEntries is the HIST label's invalidation-history table size,
// victim-cache-sized as the paper's analogy suggests.
const historyEntries = 64

// labels is the one protocol table, in the order Labels lists it.
var labels = [...]Label{
	{Name: "SC", Consistency: SC},
	{Name: "W", Consistency: WC},
	{Name: "S", Consistency: SC,
		Policy: core.Policy{Identifier: core.States, UpgradeExemption: true}},
	{Name: "V", Consistency: SC,
		Policy: core.Policy{Identifier: core.Versions, UpgradeExemption: true}},
	{Name: "V-FIFO", Consistency: SC,
		Policy: core.Policy{Identifier: core.Versions, FIFO: FIFOEntries, UpgradeExemption: true}},
	{Name: "S-FIFO", Consistency: SC,
		Policy: core.Policy{Identifier: core.States, FIFO: FIFOEntries, UpgradeExemption: true}},
	{Name: "W+DSI", Consistency: WC,
		Policy: core.Policy{Identifier: core.Versions, TearOff: true}},
	{Name: "W+DSI-S", Consistency: WC,
		Policy: core.Policy{Identifier: core.States, TearOff: true}},
	{Name: "V-TO", Consistency: SC,
		Policy: core.Policy{Identifier: core.Versions, SCTearOff: true, UpgradeExemption: true}},
	{Name: "HIST", Consistency: SC,
		Policy: core.Policy{History: historyEntries}},
	{Name: "V-naive", Consistency: SC,
		Policy: core.Policy{Identifier: core.Versions, NaiveScan: true, UpgradeExemption: true}},
	{Name: "MIG", Consistency: SC,
		Policy: core.Policy{Migratory: true}},
	{Name: "MIG+V", Consistency: SC,
		Policy: core.Policy{Migratory: true, Identifier: core.Versions, UpgradeExemption: true}},
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

// NameOf names the protocol a machine runs under consistency c and policy
// p: the name of the label configured exactly so, and for any other pair a
// rendering of all its fields, which no label name equals. Equal pairs get
// equal names and distinct pairs distinct ones, so the result cache keys a
// cell's protocol by this name.
func NameOf(c Consistency, p core.Policy) string {
	for i := range labels {
		if labels[i].Consistency == c && labels[i].Policy == p {
			return labels[i].Name
		}
	}
	return fmt.Sprintf("%v%+v", c, p)
}
