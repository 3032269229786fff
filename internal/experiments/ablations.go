package experiments

import (
	"fmt"

	"dsisim/internal/core"
	"dsisim/internal/machine"
	"dsisim/internal/proto"
)

// This file holds the ablation runners: variations the paper motivates but
// does not tabulate (FIFO capacity, identifier bounds, the upgrade
// exemption). They back the BenchmarkAblation* entries and the design-note
// section of EXPERIMENTS.md. A variation whose policy a protocol label
// already names runs as that label's cell.

// runPolicy runs SC under an ablation's own policy. No protocol label names
// it, and the result cache identifies a policy by label alone, so the cell
// bypasses the cache; what names the policy in errors.
func runPolicy(name string, what Label, pol core.Policy, o Options) (machine.Result, error) {
	o = o.defaults()
	o.Cache = nil
	return runCell(name, what, o.machineConfig(proto.SC, pol), o)
}

// RunFIFO runs SC + version-number DSI with a FIFO of the given capacity.
func RunFIFO(name string, capacity int, o Options) (machine.Result, error) {
	if capacity == proto.FIFOEntries {
		return RunOne(name, VFIFO, o)
	}
	return runPolicy(name, Label(fmt.Sprintf("V-FIFO%d", capacity)), core.Policy{
		Identifier:       core.Versions{},
		NewMechanism:     func() core.Mechanism { return core.NewFIFO(capacity) },
		UpgradeExemption: true,
	}, o)
}

// RunIdentifier runs SC DSI with the named identification scheme: "never"
// (base protocol), "states", "versions", or "always" (mark everything, an
// upper bound on self-invalidation aggressiveness).
func RunIdentifier(name, id string, o Options) (machine.Result, error) {
	switch id {
	case "never":
		return RunOne(name, SC, o)
	case "states":
		return RunOne(name, S, o)
	case "versions":
		return RunOne(name, V, o)
	case "always":
		return runPolicy(name, "always", core.Policy{Identifier: core.Always{}, UpgradeExemption: true}, o)
	}
	return machine.Result{}, fmt.Errorf("experiments: unknown identifier %q", id)
}

// RunUpgradeExemption runs SC + version DSI with the §4.1 upgrade special
// case toggled.
func RunUpgradeExemption(name string, exempt bool, o Options) (machine.Result, error) {
	if exempt {
		return RunOne(name, V, o)
	}
	return runPolicy(name, "V-noexempt", core.Policy{Identifier: core.Versions{}}, o)
}

// RunMigratory runs SC with the migratory-sharing baseline, optionally
// composed with version-number DSI.
func RunMigratory(name string, withDSI bool, o Options) (machine.Result, error) {
	if withDSI {
		return RunOne(name, "MIG+V", o)
	}
	return RunOne(name, "MIG", o)
}

// RunLimitedDir runs a limited-pointer directory (Dir_iNB-style) with the
// given pointer count, under the base protocol or with DSI + tear-off-free
// version marking. DSI's self-invalidation keeps sharer sets small, so it
// relieves pointer pressure — the interaction this ablation measures.
func RunLimitedDir(name string, pointers int, dsi bool, o Options) (machine.Result, error) {
	label := SC
	if dsi {
		label = V
	}
	o = o.defaults()
	cfg := o.machineConfig(label.Config())
	cfg.SharerLimit = pointers
	return runCell(name, label, cfg, o)
}

// RunWC runs weak consistency with a configurable write-buffer size (the
// paper's is 16) for buffer-depth ablations.
func RunWC(name string, wbEntries int, dsi bool, o Options) (machine.Result, error) {
	label := W
	if dsi {
		label = WDSI
	}
	o = o.defaults()
	cfg := o.machineConfig(label.Config())
	cfg.WriteBufferEntries = wbEntries
	return runCell(name, label, cfg, o)
}
