// Package trace records and replays workload operation streams. A trace is
// the per-processor sequence of memory references and synchronization
// operations a kernel issued — the input representation trace-driven
// simulators consume. Recording runs the workload once on a reference
// machine; the text codec makes traces diffable and the Replay program
// turns a recorded trace back into a runnable workload (without the
// original's data-flow assertions).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dsisim/internal/cpu"
	"dsisim/internal/directory"
	"dsisim/internal/machine"
	"dsisim/internal/mem"
)

// Event is one recorded operation.
type Event struct {
	Proc   int
	Kind   string // read write swap compute barrier unlock flush halt
	Addr   mem.Addr
	Word   uint64
	Cycles int64
	Sync   bool
}

// Trace is a full recording.
type Trace struct {
	Workload string
	Procs    int
	Events   []Event
}

// PerProc splits the events by processor, preserving program order.
func (t *Trace) PerProc() [][]Event {
	out := make([][]Event, t.Procs)
	for _, e := range t.Events {
		out[e.Proc] = append(out[e.Proc], e)
	}
	return out
}

// Counts returns per-kind totals.
func (t *Trace) Counts() map[string]int64 {
	counts := make(map[string]int64, len(eventKinds))
	for _, e := range t.Events {
		counts[e.Kind]++
	}
	return counts
}

// Record runs prog on a machine built from cfg and captures its operation
// stream. The machine configuration affects timing but not the stream
// itself for data-independent kernels (all built-in workloads).
func Record(cfg machine.Config, prog machine.Program) (*Trace, machine.Result) {
	t := &Trace{Workload: prog.Name()}
	cfg.Tracer = func(proc int, op cpu.TraceOp) {
		t.Events = append(t.Events, Event{
			Proc: proc, Kind: op.Kind, Addr: op.Addr, Word: op.Word,
			Cycles: op.Cycles, Sync: op.Sync,
		})
	}
	m := machine.New(cfg)
	t.Procs = m.Config().Processors
	res := m.Run(prog)
	return t, res
}

// Write encodes the trace as text: a header line, then one line per event
// ("<proc> <kind> <addr-hex> <word> <cycles> <sync>").
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "dsitrace %s procs=%d events=%d\n", t.Workload, t.Procs, len(t.Events))
	for _, e := range t.Events {
		s := 0
		if e.Sync {
			s = 1
		}
		fmt.Fprintf(bw, "%d %s %x %d %d %d\n", e.Proc, e.Kind, uint64(e.Addr), e.Word, e.Cycles, s)
	}
	return bw.Flush()
}

// MaxProcs bounds the processor count a trace header may declare: the
// simulator's directory limit (directory.NodeSet is a 64-bit full map).
const MaxProcs = directory.MaxNodes

// eventKinds are the operation kinds Write emits and Replay understands.
var eventKinds = map[string]bool{
	"read": true, "write": true, "swap": true, "compute": true,
	"barrier": true, "unlock": true, "flush": true, "halt": true,
}

// Read decodes a text trace. Malformed input — a bad header, an out-of-range
// processor, an unknown operation kind, a non-numeric field, or an event
// count that disagrees with the header — is rejected with an error naming
// the offending line, never a panic: replaying an unvalidated Proc or Procs
// would index out of range deep inside the machine.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: line 1: %w", err)
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	var t Trace
	var events int
	if _, err := fmt.Sscanf(sc.Text(), "dsitrace %s procs=%d events=%d", &t.Workload, &t.Procs, &events); err != nil {
		return nil, fmt.Errorf("trace: line 1: bad header %q: %w", sc.Text(), err)
	}
	if t.Procs < 1 || t.Procs > MaxProcs {
		return nil, fmt.Errorf("trace: line 1: procs=%d out of range [1, %d]", t.Procs, MaxProcs)
	}
	if events < 0 {
		return nil, fmt.Errorf("trace: line 1: negative event count %d", events)
	}
	line := 1
	for sc.Scan() {
		line++
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue // tolerate blank lines (e.g. a trailing newline)
		}
		if len(f) != 6 {
			return nil, fmt.Errorf("trace: line %d: want 6 fields, got %d in %q", line, len(f), sc.Text())
		}
		var e Event
		var err error
		if e.Proc, err = strconv.Atoi(f[0]); err != nil {
			return nil, fmt.Errorf("trace: line %d: bad proc %q", line, f[0])
		}
		if e.Proc < 0 || e.Proc >= t.Procs {
			return nil, fmt.Errorf("trace: line %d: proc %d out of range [0, %d)", line, e.Proc, t.Procs)
		}
		e.Kind = f[1]
		if !eventKinds[e.Kind] {
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", line, e.Kind)
		}
		a, err := strconv.ParseUint(f[2], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad addr %q", line, f[2])
		}
		e.Addr = mem.Addr(a)
		if e.Word, err = strconv.ParseUint(f[3], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: bad word %q", line, f[3])
		}
		if e.Cycles, err = strconv.ParseInt(f[4], 10, 64); err != nil || e.Cycles < 0 {
			return nil, fmt.Errorf("trace: line %d: bad cycles %q", line, f[4])
		}
		switch f[5] {
		case "0":
		case "1":
			e.Sync = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad sync flag %q (want 0 or 1)", line, f[5])
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	if len(t.Events) != events {
		return nil, fmt.Errorf("trace: header says %d events, read %d", events, len(t.Events))
	}
	return &t, nil
}

// Replay is a machine.Program that re-issues a recorded trace. Lock/unlock
// pairs are replayed as raw swaps/stores, so inter-processor timing may
// differ from the recording; replay preserves each processor's program
// order, which is the property trace-driven studies rely on.
type Replay struct {
	T *Trace
	// AddressSpace must cover the trace's highest address; Setup allocates
	// one interleaved region spanning it.
	top mem.Addr
}

// NewReplay builds a replay program for t.
func NewReplay(t *Trace) *Replay {
	r := &Replay{T: t}
	for _, e := range t.Events {
		if e.Addr > r.top {
			r.top = e.Addr
		}
	}
	return r
}

// Name implements machine.Program.
func (r *Replay) Name() string { return "replay:" + r.T.Workload }

// WarmupBarriers implements machine.Program: replays measure everything.
func (r *Replay) WarmupBarriers() int { return 0 }

// Setup implements machine.Program.
func (r *Replay) Setup(m *machine.Machine) {
	if r.top == 0 {
		return
	}
	// Reserve the whole traced range. Homes follow the default interleave,
	// which is also what Layout.Home falls back to for unallocated
	// addresses, so traced homes are stable whether or not the original
	// regions are reconstructed.
	m.Layout().AllocInterleaved("replay", uint64(r.top)+mem.BlockSize)
}

// Kernel implements machine.Program.
func (r *Replay) Kernel(p *cpu.Proc) {
	for _, e := range r.T.Events {
		if e.Proc != p.ID() {
			continue
		}
		switch e.Kind {
		case "read":
			if e.Sync {
				p.ReadSync(e.Addr)
			} else {
				p.Read(e.Addr)
			}
		case "write":
			p.WriteWord(e.Addr, e.Word)
		case "swap":
			p.Swap(e.Addr, e.Word)
		case "unlock":
			p.Unlock(e.Addr)
		case "compute":
			p.Compute(e.Cycles)
		case "barrier":
			p.Barrier()
		case "flush", "halt":
			// flushes re-occur naturally with the replayed swaps; halt ends
			// the stream.
		}
	}
}
