package soak

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"dsisim/internal/directory"
	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/netsim"
	"dsisim/internal/obs"
	"dsisim/internal/proto"
	"dsisim/internal/simcache"
	"dsisim/internal/workload"
)

// Spec is one campaign cell: everything a fresh process needs to run it,
// and the repository's one failure format. The engine runs, re-runs and
// shrinks every cell as a Spec (specOf, run); the triage pipeline writes
// minimized Specs into the campaign's corpus directory, and specs promoted
// to testdata/soak-corpus/ are replayed by the repo-level corpus test (and
// by `dsisim -replay`, which reads no other format) forever after, pinning
// the bug they once exposed. Registry workloads run on soak's one machine
// shape (see run); litmus cells take their processor count from the
// litmus program.
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
	// Faults is the (minimized) fault plan, with the effective per-cell
	// fault seed (FaultSeedOf) filled in; replays use it as given. nil
	// replays fault-free.
	Faults *faultinj.Config `json:"faults,omitempty"`
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
// error instead of crashing the replay. A field the format does not have
// is an error too: a misspelled key would otherwise replay a different
// cell than the one its author meant.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := new(Spec)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%s: data after the spec", path)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// validate checks a decoded spec against what run can run.
func (s *Spec) validate() error {
	if s.Soak != 1 {
		return fmt.Errorf("unsupported soak spec version %d", s.Soak)
	}
	if _, err := proto.LabelOf(s.Protocol); err != nil {
		return err
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(int(netsim.NumKinds)); err != nil {
			return err
		}
	}
	if s.Workload == LitmusWorkload {
		return validLitmus(s.Litmus)
	}
	return nil
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

// specOf describes a campaign cell as a Spec: its template's fault plan
// seeded for the cell (FaultSeedOf), and for a litmus cell the program
// generated from the cell seed.
func specOf(cell Cell) *Spec {
	s := &Spec{
		Soak:     1,
		Workload: cell.Workload,
		Protocol: cell.Protocol.Name,
		Template: cell.Template.Name,
		Seed:     cell.Seed,
	}
	if cell.Template.Faults != nil {
		fc := *cell.Template.Faults
		fc.Seed = FaultSeedOf(cell.Seed)
		s.Faults = &fc
	}
	if cell.Workload == LitmusWorkload {
		s.Litmus = workload.GenLitmus(cell.Seed)
	}
	return s
}

// run executes the spec once through its oracles and returns the run's
// events and cycles, whether its result came from cache, and the cell's
// verdict error. A litmus program runs through workload.RunLitmus (canary
// breaks its writes); a registry workload runs through cache, which a
// non-nil sink bypasses (simcache.Cache.Run). The sink records the run's
// coherence events.
func (s *Spec) run(cache *simcache.Cache, sink *obs.Sink, canary bool) (events uint64, cycles int64, hit bool, err error) {
	pr, err := proto.LabelOf(s.Protocol)
	if err != nil {
		return 0, 0, false, err
	}
	if s.Workload == LitmusWorkload {
		events, cycles, err = workload.RunLitmus(s.Litmus, pr, s.Faults, workload.LitmusRun{Canary: canary, Sink: sink})
		return events, cycles, false, err
	}
	// Registry workloads run on soak's one machine shape: 8 processors with
	// the default 4-way cache, seeded Seed|1, at test scale (campaigns sweep
	// breadth, not input size).
	res, hit, err := cache.Run(s.Workload, workload.ScaleTest, machine.Config{
		Processors:  8,
		CacheAssoc:  4,
		Consistency: pr.Consistency,
		Policy:      pr.Policy,
		Seed:        s.Seed | 1,
		Faults:      s.Faults,
		Sink:        sink,
	})
	if err != nil {
		return 0, 0, false, err
	}
	events, cycles = res.Kernel.Events, int64(res.TotalTime)
	if res.Failed() {
		return events, cycles, hit, fmt.Errorf("%s/%s/%s: %s", s.Workload, s.Protocol, s.Template, res.Errors[0])
	}
	return events, cycles, hit, nil
}

// Replay re-runs a persisted failure spec once, exactly as the campaign
// cell ran it, and returns the cell's verdict error (nil means the bug the
// spec pinned no longer reproduces — which, for a committed corpus entry,
// is the permanently expected outcome). A non-nil sink records the replay's
// coherence-event stream; recording never changes the verdict.
func (s *Spec) Replay(sink *obs.Sink) error {
	_, _, _, err := s.run(nil, sink, false)
	return err
}
