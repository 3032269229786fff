package soak

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"

	"dsisim/internal/faultinj"
)

// Params identifies a campaign for checkpointing: everything that
// determines the cell space and each cell's verdict. The journal header
// stores these plus their hash; a resume re-verifies the hash so a journal
// can never silently continue a *different* campaign (same path, changed
// flags) and merge incompatible verdicts. Deliberately excluded: cell- or
// duration-count bounds, worker counts, and corpus/journal paths — they
// change which cells run in one sitting, never what any cell produces.
type Params struct {
	Seed      uint64             `json:"seed"`
	Workloads []string           `json:"workloads"`
	Protocols []string           `json:"protocols"`
	Templates []*faultinj.Config `json:"templates"` // indexed like Space.Templates; nil = fault-free
	Names     []string           `json:"template_names"`
	Reps      int                `json:"reps"`
	Shard     string             `json:"shard,omitempty"`
	Canary    bool               `json:"canary,omitempty"`
}

// Hash returns the campaign fingerprint: FNV-1a over the canonical JSON
// encoding (struct-ordered keys, integer-keyed maps sorted by encoding/json).
func (p Params) Hash() string {
	data, err := json.Marshal(p)
	if err != nil {
		panic("soak: params not marshalable: " + err.Error())
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Status is a cell verdict status.
type Status string

const (
	// StatusOK marks a cell that terminated, passed the coherence audit,
	// and (for litmus cells) matched the reference outcome.
	StatusOK Status = "ok"
	// StatusFail marks a cell that tripped any oracle: a kernel assertion,
	// check.Audit, the liveness watchdog, or the outcome cross-check.
	StatusFail Status = "fail"
)

// Triage classification of a failing cell.
const (
	// ClassDeterministic marks a failure that reproduced identically on
	// every triage re-run: a real, replayable protocol failure.
	ClassDeterministic = "deterministic"
	// ClassFlaky marks a failure that did not reproduce identically — with
	// bit-deterministic simulations that means infrastructure trouble (OOM,
	// corrupted build), not protocol state, and the cell is not minimized.
	ClassFlaky = "flaky"
)

// Verdict is one cell's journaled outcome. Every field is a pure function
// of the campaign parameters and the cell index — no wall-clock, no worker
// ids — so the union of verdicts is byte-identical whether a campaign ran
// straight through or was killed and resumed arbitrarily often.
type Verdict struct {
	Cell     int    `json:"cell"`
	Workload string `json:"workload"`
	Protocol string `json:"protocol"`
	Template string `json:"template"`
	Seed     uint64 `json:"seed"`
	Status   Status `json:"status"`
	Events   uint64 `json:"events"`
	Cycles   int64  `json:"cycles"`
	// Cached marks a verdict served from the result cache instead of a
	// fresh simulation (Options.Cache). The payload fields are bit-identical
	// either way — this is provenance for the hit-rate bookkeeping, the one
	// verdict field that may legitimately differ between a straight-through
	// run and a resumed one.
	Cached bool `json:"cached,omitempty"`

	// Failure-only fields.
	Err      string `json:"err,omitempty"`
	Class    string `json:"class,omitempty"`
	Spec     string `json:"spec,omitempty"` // corpus path of the minimized repro
	MinOps   int    `json:"min_ops,omitempty"`
	MinRules int    `json:"min_rules,omitempty"`
}

// journalHeader is the first line of a journal file.
type journalHeader struct {
	Journal int    `json:"soak_journal"` // schema version, 1
	Params  Params `json:"params"`
	Hash    string `json:"hash"`
}

// syncEvery bounds how many appended verdicts may sit un-fsynced. A crash
// loses at most this many cells' work — they simply re-run on resume.
const syncEvery = 32

// Journal is the append-only JSONL checkpoint of a campaign: one header
// line identifying the campaign, then one line per completed cell verdict.
// Append is safe for concurrent use by the runner's workers.
//
// Resume semantics: OpenJournal(path, params, resume=true) replays the
// existing file — verifying the header hash against params — recovers every
// parseable verdict into Done, tolerates a torn final line (the kill may
// have landed mid-write), and compacts the file (header + recovered
// verdicts, rewritten atomically via rename) before appending resumes. A
// journal whose header is itself torn or missing restarts the campaign
// from scratch; one whose header hash mismatches is an error, not a
// restart — silently discarding a journal because a flag changed is how
// campaigns lose days of work.
type Journal struct {
	// Done maps cell index → recovered verdict (empty for a fresh journal).
	Done map[int]Verdict

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	path    string
	pending int
}

// OpenJournal opens (or creates) the campaign journal at path. With resume
// false any existing file is overwritten; with resume true completed
// verdicts are recovered per the semantics above.
func OpenJournal(path string, p Params, resume bool) (*Journal, error) {
	j := &Journal{Done: make(map[int]Verdict), path: path}
	if resume {
		if err := j.recover(p); err != nil {
			return nil, err
		}
	}
	// Rewrite the file: header plus (on resume) the recovered verdicts in
	// cell order, atomically via a temp file + rename, so the live file is
	// never left with a torn tail we would then append after.
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(journalHeader{Journal: 1, Params: p, Hash: p.Hash()}); err != nil {
		f.Close()
		return nil, err
	}
	cells := make([]int, 0, len(j.Done))
	//dsi:anyorder keys are sorted before writing
	for c := range j.Done {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	for _, c := range cells {
		if err := enc.Encode(j.Done[c]); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	j.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j.w = bufio.NewWriter(j.f)
	return j, nil
}

// recover replays an existing journal into j.Done.
func (j *Journal) recover(p Params) error {
	data, err := os.ReadFile(j.path)
	if os.IsNotExist(err) {
		return nil // fresh campaign
	}
	if err != nil {
		return err
	}
	lines := bytes.Split(data, []byte("\n"))
	// Trim trailing empty lines (the file ends with a newline when intact).
	for len(lines) > 0 && len(bytes.TrimSpace(lines[len(lines)-1])) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil
	}
	var hdr journalHeader
	if json.Unmarshal(lines[0], &hdr) != nil || hdr.Journal == 0 {
		// Torn or alien header: the campaign never completed a single
		// checkpointed cell worth trusting. Start fresh.
		return nil
	}
	if hdr.Journal != 1 {
		return fmt.Errorf("soak: journal %s: unsupported version %d", j.path, hdr.Journal)
	}
	if want := p.Hash(); hdr.Hash != want {
		return fmt.Errorf("soak: journal %s belongs to a different campaign (header hash %s, current params hash %s); refusing to merge verdicts",
			j.path, hdr.Hash, want)
	}
	for i, line := range lines[1:] {
		var v Verdict
		if err := json.Unmarshal(line, &v); err != nil {
			if i == len(lines)-2 {
				break // torn final line: the kill landed mid-append
			}
			return fmt.Errorf("soak: journal %s: corrupt verdict at line %d: %w", j.path, i+2, err)
		}
		j.Done[v.Cell] = v
	}
	return nil
}

// Append journals one verdict: a full line is buffered, flushed to the OS,
// and fsynced every syncEvery appends.
func (j *Journal) Append(v Verdict) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(data, '\n')); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	j.pending++
	if j.pending >= syncEvery {
		j.pending = 0
		return j.f.Sync()
	}
	return nil
}

// Close flushes, fsyncs, and closes the journal — the final checkpoint of
// a graceful drain.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// ReadVerdicts loads every verdict of a finished journal, sorted by cell
// index — the aggregate-comparison primitive of the resume tests and the
// post-campaign tooling. The header is validated but not hash-checked
// (pass the verdicts to OpenJournal for that).
func ReadVerdicts(path string) ([]Verdict, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(data, []byte("\n"))
	var out []Verdict
	for i, line := range lines {
		if i == 0 || len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var v Verdict
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, fmt.Errorf("soak: %s line %d: %w", path, i+1, err)
		}
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Cell < out[b].Cell })
	return out, nil
}
