package soak

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"dsisim/internal/cache"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/netsim"
	"dsisim/internal/obs"
	"dsisim/internal/proto"
	"dsisim/internal/workload"
)

// FaultSpec is the JSON-safe mirror of faultinj.Config. The real config is
// not directly marshalable (DropByLink is keyed by a [2]int array), and the
// corpus format must stay stable against config-struct refactors anyway, so
// specs persist this flattened shape instead.
type FaultSpec struct {
	Seed       uint64          `json:"seed,omitempty"`
	Drop       float64         `json:"drop,omitempty"`
	Dup        float64         `json:"dup,omitempty"`
	Delay      float64         `json:"delay,omitempty"`
	Jitter     int64           `json:"jitter,omitempty"`
	DropByKind map[int]float64 `json:"drop_by_kind,omitempty"`
	DropByLink []LinkDrop      `json:"drop_by_link,omitempty"`
	Rules      []RuleSpec      `json:"rules,omitempty"`
}

// LinkDrop is one per-directed-link drop override.
type LinkDrop struct {
	Src  int     `json:"src"`
	Dst  int     `json:"dst"`
	Prob float64 `json:"prob"`
}

// RuleSpec is one scripted fault rule (see faultinj.Rule).
type RuleSpec struct {
	Kind   int    `json:"kind"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Nth    int    `json:"nth,omitempty"`
	Action string `json:"action"`
	Delay  int64  `json:"delay,omitempty"`
}

// actionByName maps rule-action names back to faultinj actions.
func actionByName(name string) (faultinj.Action, error) {
	for a := faultinj.Action(0); a < faultinj.NumActions; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("soak: unknown fault action %q", name)
}

// FaultSpecOf flattens a fault config for persistence (nil in, nil out).
func FaultSpecOf(fc *faultinj.Config) *FaultSpec {
	if fc == nil {
		return nil
	}
	fs := &FaultSpec{
		Seed: fc.Seed, Drop: fc.Drop, Dup: fc.Dup, Delay: fc.Delay,
		Jitter: int64(fc.Jitter),
	}
	if len(fc.DropByKind) > 0 {
		fs.DropByKind = make(map[int]float64, len(fc.DropByKind))
		//dsi:anyorder copying into a map; JSON marshaling sorts the keys
		for k, v := range fc.DropByKind {
			fs.DropByKind[k] = v
		}
	}
	//dsi:anyorder the slice is only ever compared as a set and re-mapped
	for k, v := range fc.DropByLink {
		fs.DropByLink = append(fs.DropByLink, LinkDrop{Src: k[0], Dst: k[1], Prob: v})
	}
	for _, r := range fc.Rules {
		fs.Rules = append(fs.Rules, RuleSpec{
			Kind: r.Kind, Src: r.Src, Dst: r.Dst, Nth: r.Nth,
			Action: r.Action.String(), Delay: int64(r.Delay),
		})
	}
	return fs
}

// Config rebuilds the runnable fault config (nil in, nil out), rejecting
// any field faultinj.Config.Validate rejects.
func (fs *FaultSpec) Config() (*faultinj.Config, error) {
	if fs == nil {
		return nil, nil
	}
	fc := &faultinj.Config{
		Seed: fs.Seed, Drop: fs.Drop, Dup: fs.Dup, Delay: fs.Delay,
		Jitter: event.Time(fs.Jitter),
	}
	if len(fs.DropByKind) > 0 {
		fc.DropByKind = make(map[int]float64, len(fs.DropByKind))
		//dsi:anyorder copying into a map consumed by faultinj.New, which compiles it densely
		for k, v := range fs.DropByKind {
			fc.DropByKind[k] = v
		}
	}
	if len(fs.DropByLink) > 0 {
		fc.DropByLink = make(map[[2]int]float64, len(fs.DropByLink))
		for _, l := range fs.DropByLink {
			fc.DropByLink[[2]int{l.Src, l.Dst}] = l.Prob
		}
	}
	for _, r := range fs.Rules {
		a, err := actionByName(r.Action)
		if err != nil {
			return nil, err
		}
		fc.Rules = append(fc.Rules, faultinj.Rule{
			Kind: r.Kind, Src: r.Src, Dst: r.Dst, Nth: r.Nth,
			Action: a, Delay: event.Time(r.Delay),
		})
	}
	if err := fc.Validate(int(netsim.NumKinds)); err != nil {
		return nil, err
	}
	return fc, nil
}

// Spec is one replayable failure: everything a fresh process needs to
// re-run the failing cell, in the repository's one failure format. The
// triage pipeline writes minimized Specs into the campaign's corpus
// directory; specs promoted to testdata/soak-corpus/ are replayed by the
// repo-level corpus test (and by `dsisim -replay`, which reads no other
// format) forever after, pinning the bug they once exposed.
type Spec struct {
	// Soak is the schema version (1).
	Soak int `json:"soak"`
	// Workload is a registry name, or "litmus" for a generated program.
	Workload string `json:"workload"`
	// Litmus carries the (minimized) program for litmus cells.
	Litmus *workload.LitmusSpec `json:"litmus,omitempty"`
	// Protocol is a protocol label (see proto.LabelOf).
	Protocol string `json:"protocol"`
	// Template names the fault template the cell came from (informational).
	Template string `json:"template,omitempty"`
	// Seed is the cell seed (machine seed derives as Seed|1 for registry
	// workloads; litmus cells derive theirs from the litmus spec's seed).
	Seed uint64 `json:"seed"`
	// Procs, CacheBytes, Scale shape registry-workload machines; litmus
	// cells take their processor count from the litmus spec.
	Procs      int    `json:"procs,omitempty"`
	CacheBytes int    `json:"cache_bytes,omitempty"`
	Scale      string `json:"scale,omitempty"`
	// Faults is the (minimized) fault plan, with the effective per-cell
	// fault seed (FaultSeedOf) filled in; replays use it as given. nil
	// replays fault-free.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Err records the failure that produced this spec, for humans reading
	// the corpus.
	Err string `json:"err,omitempty"`
}

// SaveSpec persists a spec as indented JSON.
func SaveSpec(s *Spec, path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadSpec reads a spec persisted by SaveSpec and validates every field a
// replay depends on, so a hand-edited or corrupted spec fails with a named
// error instead of crashing the replay.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := new(Spec)
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// validate checks a decoded spec against what Replay can run.
func (s *Spec) validate() error {
	if s.Soak != 1 {
		return fmt.Errorf("unsupported soak spec version %d", s.Soak)
	}
	if _, err := proto.LabelOf(s.Protocol); err != nil {
		return err
	}
	if _, err := s.Faults.Config(); err != nil {
		return err
	}
	if s.Workload == LitmusWorkload {
		return validLitmus(s.Litmus)
	}
	if s.Procs < 0 || s.Procs > directory.MaxNodes {
		return fmt.Errorf("procs %d out of range [0, %d]", s.Procs, directory.MaxNodes)
	}
	mc := machineConfig(Cell{}, Options{Procs: s.Procs, CacheBytes: s.CacheBytes}, nil).Defaults()
	if err := (cache.Config{SizeBytes: mc.CacheBytes, Assoc: mc.CacheAssoc}).Validate(); err != nil {
		return err
	}
	_, err := scaleOf(s.Scale)
	return err
}

// validLitmus checks a litmus program's shape and that every op names a
// processor, round and block the program has.
func validLitmus(l *workload.LitmusSpec) error {
	if l == nil {
		return errors.New("litmus spec without a program")
	}
	if l.Procs < 1 || l.Procs > directory.MaxNodes || l.Blocks < 1 || l.Rounds < 1 {
		return fmt.Errorf("litmus program needs 1 to %d procs and at least one block and round (has %d procs, %d blocks, %d rounds)",
			directory.MaxNodes, l.Procs, l.Blocks, l.Rounds)
	}
	for i, op := range l.Ops {
		if op.Proc < 0 || op.Proc >= l.Procs || op.Round < 0 || op.Round >= l.Rounds ||
			op.Block < 0 || op.Block >= l.Blocks || op.Kind < workload.LitmusRead || op.Kind > workload.LitmusLockInc {
			return fmt.Errorf("litmus op %d out of range: %+v", i, op)
		}
	}
	return nil
}

// scaleOf parses a persisted scale name ("" defaults to test scale: soak
// campaigns sweep breadth, not input size).
func scaleOf(name string) (workload.Scale, error) {
	switch name {
	case "", "test":
		return workload.ScaleTest, nil
	case "paper":
		return workload.ScalePaper, nil
	}
	return 0, fmt.Errorf("soak: unknown scale %q", name)
}

// Replay re-runs a persisted failure spec once, exactly as the campaign
// cell ran it, and returns the cell's verdict error (nil means the bug the
// spec pinned no longer reproduces — which, for a committed corpus entry,
// is the permanently expected outcome). A non-nil sink records the replay's
// coherence-event stream; recording never changes the verdict.
func (s *Spec) Replay(sink *obs.Sink) error {
	pr, err := proto.LabelOf(s.Protocol)
	if err != nil {
		return err
	}
	fc, err := s.Faults.Config()
	if err != nil {
		return err
	}
	if s.Workload == LitmusWorkload {
		_, _, err := workload.RunLitmus(s.Litmus, pr, fc, workload.LitmusRun{Sink: sink})
		return err
	}
	scale, err := scaleOf(s.Scale)
	if err != nil {
		return err
	}
	prog, err := workload.New(s.Workload, scale)
	if err != nil {
		return err
	}
	cfg := machineConfig(Cell{Protocol: pr, Seed: s.Seed}, Options{Procs: s.Procs, CacheBytes: s.CacheBytes}, fc)
	cfg.Sink = sink
	res := machine.Run(cfg, prog)
	if res.Failed() {
		return fmt.Errorf("%s/%s: %s", s.Workload, s.Protocol, res.Errors[0])
	}
	return nil
}
