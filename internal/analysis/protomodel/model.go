// Package protomodel statically extracts the coherence protocol's transition
// table from the proto package's controller sources and checks it for
// completeness: every (controller, state, trigger) pair either reaches real
// handling code, or terminates only in an assertion that carries a
// //dsi:unreachable waiver naming why the pair cannot occur.
//
// The extractor walks each dispatch root (the controllers' Handle switches,
// the processor-facing ops, and the retry timers) symbolically over the cfg
// package's control-flow graphs: the subject block's coherence state starts
// as one concrete value per run, branch conditions that test it refine or
// prune the path, and every other condition conservatively splits the walk.
// Along each feasible path the walker records the effects the model cares
// about — state writes, message sends, stats counters, obs emissions — and
// the union over paths becomes one Transition.
//
// The same model doubles as a runtime oracle: coverage.go folds an obs.Sink
// event stream into observed (controller, trigger, state) triples and checks
// each against the static table (see TestTransitionCoverage).
package protomodel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Schema is the protomodel JSON schema version; bump on incompatible change.
const Schema = 1

// TransitionKind classifies how a (controller, trigger, state) pair resolves.
type TransitionKind uint8

const (
	// Handled: at least one feasible path through the handler completes
	// without hitting an assertion.
	Handled TransitionKind = iota
	// Fail: every feasible path terminates in an Env.fail assertion and no
	// //dsi:unreachable waiver covers the site — a completeness finding.
	Fail
	// Waived: every feasible path terminates in an assertion whose site
	// carries a //dsi:unreachable waiver; Transition.Reason records why.
	Waived
	// Infeasible: the entry state contradicts every guard before any path
	// reaches an outcome (the pair cannot even enter the handler body).
	Infeasible
)

var transitionKindNames = [...]string{"handled", "fail", "waived", "infeasible"}

func (k TransitionKind) String() string {
	if int(k) < len(transitionKindNames) {
		return transitionKindNames[k]
	}
	return fmt.Sprintf("TransitionKind(%d)", uint8(k))
}

// MarshalText renders the kind as its lowercase name for JSON.
func (k TransitionKind) MarshalText() ([]byte, error) {
	if int(k) >= len(transitionKindNames) {
		return nil, fmt.Errorf("protomodel: invalid TransitionKind %d", uint8(k))
	}
	return []byte(transitionKindNames[k]), nil
}

// UnmarshalText parses a kind name produced by MarshalText.
func (k *TransitionKind) UnmarshalText(b []byte) error {
	for i, n := range transitionKindNames {
		if n == string(b) {
			*k = TransitionKind(i)
			return nil
		}
	}
	return fmt.Errorf("protomodel: unknown TransitionKind %q", b)
}

// WaiverReason is the reason token of a //dsi:unreachable directive.
type WaiverReason uint8

const (
	// ReasonNone: the transition carries no waiver (Kind != Waived).
	ReasonNone WaiverReason = iota
	// ReasonNotRouted: the network fabric never delivers this message kind
	// to this controller side (machine routing sends it to the other one).
	ReasonNotRouted
	// ReasonInvariant: a protocol invariant excludes the state (e.g. a
	// directory can never observe its own grant).
	ReasonInvariant
)

var waiverReasonNames = [...]string{"", "not-routed", "invariant"}

func (r WaiverReason) String() string {
	if int(r) < len(waiverReasonNames) {
		return waiverReasonNames[r]
	}
	return fmt.Sprintf("WaiverReason(%d)", uint8(r))
}

// MarshalText renders the reason token for JSON ("" for ReasonNone).
func (r WaiverReason) MarshalText() ([]byte, error) {
	if int(r) >= len(waiverReasonNames) {
		return nil, fmt.Errorf("protomodel: invalid WaiverReason %d", uint8(r))
	}
	return []byte(waiverReasonNames[r]), nil
}

// UnmarshalText parses a reason token produced by MarshalText.
func (r *WaiverReason) UnmarshalText(b []byte) error {
	for i, n := range waiverReasonNames {
		if n == string(b) {
			*r = WaiverReason(i)
			return nil
		}
	}
	return fmt.Errorf("protomodel: unknown WaiverReason %q", b)
}

// ParseWaiverReason maps a directive reason token to its enum value; unknown
// tokens return ReasonNone and ok=false.
func ParseWaiverReason(tok string) (WaiverReason, bool) {
	switch tok {
	case "not-routed":
		return ReasonNotRouted, true
	case "invariant":
		return ReasonInvariant, true
	}
	return ReasonNone, false
}

// Transition is the extracted behavior of one (trigger, entry state) pair on
// one controller. Effect lists are unions over every feasible path.
type Transition struct {
	// Trigger names what arrives: a message kind ("GetS"), a processor op
	// ("op:read"), or a timer ("timeout:txn").
	Trigger string `json:"trigger"`
	// State is the subject block's coherence state when the trigger fires.
	State string `json:"state"`
	// Kind classifies the pair (handled / fail / waived / infeasible).
	Kind TransitionKind `json:"kind"`
	// Reason is the waiver's reason token when Kind == Waived.
	Reason WaiverReason `json:"reason,omitempty"`
	// Next lists the states the subject block may be left in (present only
	// when some path writes the state; a missing list means "unchanged").
	Next []string `json:"next,omitempty"`
	// MayFail marks handled transitions that also have assertion paths
	// (defensive "can't happen" checks guarding narrower invariants).
	MayFail bool `json:"mayFail,omitempty"`
	// Sends lists the message kinds some path may emit.
	Sends []string `json:"sends,omitempty"`
	// Counters lists the stats fields some path bumps.
	Counters []string `json:"counters,omitempty"`
	// Emits lists the obs.Sink methods some path calls.
	Emits []string `json:"emits,omitempty"`
}

// Controller is one side's transition table.
type Controller struct {
	// Name is "dir" or "cache".
	Name string `json:"name"`
	// States is the controller's state vocabulary, indexed by enum value.
	States []string `json:"states"`
	// Transitions holds one entry per (trigger, state), triggers in dispatch
	// order, states in enum order.
	Transitions []Transition `json:"transitions"`
}

// Model is the full extracted protocol model.
type Model struct {
	// SchemaVersion guards golden-file compatibility.
	SchemaVersion int `json:"schema"`
	// Package is the import path the model was extracted from.
	Package string `json:"package"`
	// Kinds is the message-kind vocabulary, indexed by netsim.Kind value, so
	// runtime coverage can map observed kinds without importing netsim's
	// String form.
	Kinds []string `json:"kinds"`
	// Controllers lists the per-side tables ("dir" first).
	Controllers []Controller `json:"controllers"`
}

// Controller returns the named controller table, or nil.
func (m *Model) Controller(name string) *Controller {
	for i := range m.Controllers {
		if m.Controllers[i].Name == name {
			return &m.Controllers[i]
		}
	}
	return nil
}

// Lookup returns the transition for (trigger, state), or nil.
func (c *Controller) Lookup(trigger, state string) *Transition {
	for i := range c.Transitions {
		t := &c.Transitions[i]
		if t.Trigger == trigger && t.State == state {
			return t
		}
	}
	return nil
}

// Render serializes the model deterministically: stable field order, one
// transition per line, so the committed golden diffs transition-by-transition.
func (m *Model) Render() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("{\n")
	fmt.Fprintf(&buf, "  \"schema\": %d,\n", m.SchemaVersion)
	fmt.Fprintf(&buf, "  \"package\": %s,\n", mustJSON(m.Package))
	fmt.Fprintf(&buf, "  \"kinds\": %s,\n", mustJSON(m.Kinds))
	buf.WriteString("  \"controllers\": [\n")
	for ci, c := range m.Controllers {
		buf.WriteString("    {\n")
		fmt.Fprintf(&buf, "      \"name\": %s,\n", mustJSON(c.Name))
		fmt.Fprintf(&buf, "      \"states\": %s,\n", mustJSON(c.States))
		buf.WriteString("      \"transitions\": [\n")
		for ti, t := range c.Transitions {
			line, err := json.Marshal(t)
			if err != nil {
				return nil, err
			}
			buf.WriteString("        ")
			buf.Write(line)
			if ti < len(c.Transitions)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("      ]\n")
		if ci < len(m.Controllers)-1 {
			buf.WriteString("    },\n")
		} else {
			buf.WriteString("    }\n")
		}
	}
	buf.WriteString("  ]\n}\n")
	return buf.Bytes(), nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// Parse decodes a rendered model (the committed golden).
func Parse(data []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("protomodel: parsing model: %w", err)
	}
	if m.SchemaVersion != Schema {
		return nil, fmt.Errorf("protomodel: schema %d, want %d (regenerate with dsivet -run protomodel -model)", m.SchemaVersion, Schema)
	}
	return &m, nil
}

// sortedStrings returns the set's members sorted, nil when empty.
func sortedStrings(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
