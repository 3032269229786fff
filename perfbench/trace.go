package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"dsisim"
	"dsisim/internal/cpu"
)

// span is one timed call the benchmark made into the program, or one phase a
// Program hook observed. Spans of one request share its Request id; times
// are offsets from the tracer's epoch.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent,omitempty"`
	Request int           `json:"request"`
	Name    string        `json:"name"`
	Tag     string        `json:"tag,omitempty"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps a traced phase's spans in memory until the run writes them
// out. A nil *tracer records nothing: untraced phases pass nil.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span that ran from start to end and returns its id. A
// parent of 0 makes it a request's root span.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	req := id
	if parent > 0 {
		req = t.spans[parent-1].Request
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// tag labels span id (a cache hit or miss).
func (t *tracer) tag(id int, tag string) { t.spans[id-1].Tag = tag }

// durations returns the durations of the spans called name, optionally only
// those tagged tag.
func (t *tracer) durations(name, tag string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		cur := s.Start // covered up to here
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// hookedProgram passes every call through to the program it wraps and
// timestamps the phases of the run around it: Setup, each processor's
// kernel start and exit, and the operations each kernel issues.
type hookedProgram struct {
	dsisim.Program
	setupStart, setupEnd time.Time
	kernelStart          []time.Time // per processor
	kernelEnd            []time.Time
	ops                  []int64
}

func (p *hookedProgram) Setup(m *dsisim.Machine) {
	n := m.Config().Processors
	p.kernelStart = make([]time.Time, n)
	p.kernelEnd = make([]time.Time, n)
	p.ops = make([]int64, n)
	p.setupStart = time.Now()
	p.Program.Setup(m)
	p.setupEnd = time.Now()
}

// Kernel runs on processor pr's goroutine and touches only pr's slots; the
// machine joins every halted kernel before RunProgram returns.
func (p *hookedProgram) Kernel(pr *dsisim.Proc) {
	id := pr.ID()
	pr.OnOp = func(cpu.TraceOp) { p.ops[id]++ }
	p.kernelStart[id] = time.Now()
	p.Program.Kernel(pr)
	p.kernelEnd[id] = time.Now()
}

// simulateSpan returns the first kernel start and the last kernel exit.
func (p *hookedProgram) simulateSpan() (start, end time.Time) {
	for i := range p.kernelStart {
		if s := p.kernelStart[i]; !s.IsZero() && (start.IsZero() || s.Before(start)) {
			start = s
		}
		if e := p.kernelEnd[i]; e.After(end) {
			end = e
		}
	}
	return start, end
}

func (p *hookedProgram) totalOps() int64 {
	var n int64
	for _, v := range p.ops {
		n += v
	}
	return n
}
