// Package soak implements the fault-seed soak farm: a long-running campaign
// engine that sweeps a deterministic cell space — workload × protocol ×
// fault-plan template × seed — through a work-stealing runner, journals
// every per-cell verdict to an append-only JSONL checkpoint so a killed
// campaign resumes exactly where it stopped, and pushes every failure
// through a triage pipeline (bounded re-run classification, greedy
// minimization of fault-plan rules and litmus ops, persistence into a
// replayable failure corpus). "Mending Fences with Self-Invalidation and
// Self-Downgrade" (PAPERS.md) shows that self-invalidation protocols
// harbor exactly the interleaving-dependent bugs only this style of
// long-horizon randomized exploration finds; a bounded litmus sweep caught
// one (docs/FAULTS.md §2), and this package is that loop — inject, detect,
// minimize, pin — as the repository's one campaign driver (`dsibench -fuzz
// N` is a sitting over LitmusSpace(N)).
//
// Determinism contract: the cell space and every per-cell seed are pure
// functions of the campaign parameters (SeedOf), so shards, resumes, and
// re-runs agree on what cell N is and what it does. The engine itself is
// driver-side orchestration — goroutines, wall-clock heartbeats, signal
// handling — and is deliberately NOT in determinism.DefaultSimPackages;
// every simulation it launches remains internally single-threaded and
// bit-deterministic, which is what makes journal verdicts byte-stable
// across kills and resumes.
package soak

import (
	"fmt"
	"strconv"
	"strings"

	"dsisim/internal/faultinj"
	"dsisim/internal/proto"
	"dsisim/internal/workload"
)

// SeedOf is THE deterministic cell→seed function: one splitmix64-style
// finalizer over (campaign seed, cell index). Everything that derives
// per-cell randomness — the soak engine, shard slicing in cmd/dsibench,
// replayed corpus specs — goes through this one function, so two shards of
// the same campaign, or a resume of a killed one, agree bit-for-bit on what
// cell i runs (docs/FAULTS.md §6).
//
//dsi:hotpath
func SeedOf(campaign uint64, cell int) uint64 {
	z := campaign + 0x9e3779b97f4a7c15*(uint64(cell)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Shard selects a 1-based round-robin slice of a cell (or artifact) space:
// shard i of n owns every index congruent to i-1 mod n. The zero value
// owns everything. dsibench -shard uses the same Shard for paper-artifact
// slices and soak cells, so one function defines "who owns index k" across
// every grid fan-out.
type Shard struct {
	Index int // 1-based shard number; 0 means unsharded
	Count int // total shards; <= 1 means unsharded
}

// Owns reports whether this shard runs index k.
//
//dsi:hotpath
func (s Shard) Owns(k int) bool {
	if s.Count <= 1 {
		return true
	}
	return k%s.Count == s.Index-1
}

// String renders the shard as "i/n" ("" when unsharded).
func (s Shard) String() string {
	if s.Count <= 1 {
		return ""
	}
	return strconv.Itoa(s.Index) + "/" + strconv.Itoa(s.Count)
}

// ParseShard parses an "i/n" spec (1 <= i <= n). The empty spec is the
// unsharded Shard.
func ParseShard(spec string) (Shard, error) {
	if spec == "" {
		return Shard{}, nil
	}
	var i, n int
	if c, err := fmt.Sscanf(spec, "%d/%d", &i, &n); err != nil || c != 2 {
		return Shard{}, fmt.Errorf("shard %q: want i/n, e.g. 2/3", spec)
	}
	if n < 1 || i < 1 || i > n {
		return Shard{}, fmt.Errorf("shard %q: want 1 <= i <= n", spec)
	}
	return Shard{Index: i, Count: n}, nil
}

// Template is one named fault-plan shape of the campaign. The config's
// Seed field is ignored: the engine fills a per-cell fault seed derived
// from the cell seed, so one template covers thousands of distinct
// injected-chaos streams. A nil Faults is the fault-free template.
type Template struct {
	Name   string
	Faults *faultinj.Config
}

// DefaultTemplates returns the stock campaign templates: fault-free, lossy
// (drop+dup+delay), reorder-heavy jitter, and a heavier mixed storm. Rates
// stay inside the envelope the fault-matrix gate proves the bounded retry
// protocol converges under.
func DefaultTemplates() []Template {
	return []Template{
		{Name: "none"},
		{Name: "lossy", Faults: &faultinj.Config{Drop: 0.02, Dup: 0.01, Delay: 0.05}},
		{Name: "jitter", Faults: &faultinj.Config{Delay: 0.2, Jitter: 64}},
		{Name: "storm", Faults: &faultinj.Config{Drop: 0.02, Dup: 0.02, Delay: 0.1, Jitter: 48}},
	}
}

// LitmusWorkload is the pseudo-workload name for generated litmus cells:
// instead of a registry program, the cell runs workload.GenLitmus(seed)
// through the kernel-assertion + audit + outcome cross-check oracles of
// workload.RunLitmus. Litmus cells are where minimization bites hardest
// (ops shrink as well as fault rules), so campaigns should usually include
// them.
const LitmusWorkload = "litmus"

// Space is the deterministic campaign cell space: the cross product
// workload × protocol × template, swept Reps times with fresh per-cell
// seeds. Cell i decodes by mixed radix — template fastest, then protocol,
// then workload, then repetition — so prefixes of the index range cover
// the whole matrix breadth-first.
type Space struct {
	Workloads []string
	Protocols []proto.Label
	Templates []Template
	Reps      int // seed sweeps over the full matrix; <= 0 means 1
}

// DefaultSpace is the stock campaign: the paper five plus the four
// traffic-shaped generators plus generated litmus programs, under SC, V,
// and W+DSI, across the default templates. With Reps left at its default
// (17) that is a 2040-cell campaign — the ISSUE 9 acceptance shape.
func DefaultSpace() Space {
	wls := append(workload.PaperNames(), workload.TrafficNames()...)
	wls = append(wls, LitmusWorkload)
	return Space{
		Workloads: wls,
		Protocols: ProtocolsByName("SC", "V", "W+DSI"),
		Templates: DefaultTemplates(),
		Reps:      17,
	}
}

// LitmusSpace is the litmus-only campaign `dsibench -fuzz N` sweeps:
// generated litmus programs under every shipped protocol label
// (proto.Labels: SC, W, S, V, V-FIFO, S-FIFO, W+DSI, W+DSI-S, V-TO, HIST,
// V-naive, MIG, MIG+V), fault-free and under the lossy and jitter
// templates — 39 cells, each a fresh program, per repetition.
func LitmusSpace(reps int) Space {
	return Space{
		Workloads: []string{LitmusWorkload},
		Protocols: proto.Labels(),
		Templates: DefaultTemplates()[:3],
		Reps:      reps,
	}
}

// ProtocolsByName resolves protocol labels through the protocol table
// (proto.LabelOf). It panics on an unknown name — the sets used here are
// compile-time constants.
func ProtocolsByName(names ...string) []proto.Label {
	out := make([]proto.Label, 0, len(names))
	for _, name := range names {
		l, err := proto.LabelOf(name)
		if err != nil {
			panic("soak: " + err.Error())
		}
		out = append(out, l)
	}
	return out
}

// reps returns the effective repetition count.
func (s Space) reps() int {
	if s.Reps <= 0 {
		return 1
	}
	return s.Reps
}

// Cells returns the size of the cell space.
func (s Space) Cells() int {
	return len(s.Workloads) * len(s.Protocols) * len(s.Templates) * s.reps()
}

// Validate checks the space is runnable: non-empty axes and workload names
// that resolve (registry names or the litmus pseudo-workload).
func (s Space) Validate() error {
	if len(s.Workloads) == 0 || len(s.Protocols) == 0 || len(s.Templates) == 0 {
		return fmt.Errorf("soak: empty space axis (workloads %d, protocols %d, templates %d)",
			len(s.Workloads), len(s.Protocols), len(s.Templates))
	}
	for _, w := range s.Workloads {
		if w == LitmusWorkload {
			continue
		}
		if _, err := workload.New(w, workload.ScaleTest); err != nil {
			return fmt.Errorf("soak: %w", err)
		}
	}
	return nil
}

// Cell is one fully resolved campaign cell.
type Cell struct {
	Index    int
	Workload string
	Protocol proto.Label
	Template Template
	Seed     uint64
}

// Cell decodes cell i of the space under the given campaign seed.
func (s Space) Cell(campaign uint64, i int) Cell {
	r := i
	t := r % len(s.Templates)
	r /= len(s.Templates)
	p := r % len(s.Protocols)
	r /= len(s.Protocols)
	w := r % len(s.Workloads)
	return Cell{
		Index:    i,
		Workload: s.Workloads[w],
		Protocol: s.Protocols[p],
		Template: s.Templates[t],
		Seed:     SeedOf(campaign, i),
	}
}

// FaultSeedOf derives the fault-plan seed of a cell from its cell seed, so
// a cell's injected chaos is replayable from the spec alone. It is the one
// place the derivation lives: persisted specs carry its result, and
// replays use the persisted seed as given.
//
//dsi:hotpath
func FaultSeedOf(cellSeed uint64) uint64 { return cellSeed ^ 0xfa17 }

// sanitizeName makes a workload/protocol/template name filesystem-safe
// ("W+DSI" -> "W-DSI") for corpus file names.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, s)
}
