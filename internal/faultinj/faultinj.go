// Package faultinj provides deterministic fault injection for the simulated
// interconnect. A Plan is built once from a Config and consulted by netsim on
// every network Send; it decides — reproducibly, from a splitmix64 stream
// seeded via internal/rng — whether that message is delivered normally,
// dropped, duplicated, or delayed.
//
// Two classes of faults coexist:
//
//   - Probabilistic faults (Drop/Dup/Delay probabilities, optionally
//     overridden per message kind or per directed link) model a lossy,
//     jittery network. Messages whose loss is unrecoverable by the protocol
//     (single-copy data carriers such as writebacks; netsim tells us via the
//     droppable argument) are never probabilistically dropped or duplicated:
//     those decisions are converted into a bounded extra delay instead, so a
//     fault plan perturbs timing without destroying data the protocol has no
//     end-to-end retention for.
//   - Scripted faults (Rules) target a specific occurrence of a specific
//     message ("drop the 3rd Inv to node 7") for white-box regression tests.
//     Scripted rules bypass the droppable conversion: a test that wants to
//     lose a writeback on purpose may do so.
//
// The package deliberately does not import netsim: message kinds are plain
// ints here, and netsim (which imports faultinj) supplies the droppable
// classification. Determinism is load-bearing — the plan draws exclusively
// from internal/rng, so two runs with the same seed and config make
// bit-identical decisions (dsivet's determinism checker enforces the
// no-math/rand, no-wall-clock rules for this package).
package faultinj

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dsisim/internal/event"
	"dsisim/internal/rng"
)

// Action is the fate a Decision assigns to one message send.
type Action uint8

const (
	// Deliver leaves the message untouched.
	Deliver Action = iota
	// Drop loses the message: it consumes injection bandwidth but is never
	// delivered.
	Drop
	// Duplicate delivers the message and a second identical copy after an
	// extra delay.
	Duplicate
	// Delay delivers the message after a bounded extra delay.
	Delay

	// NumActions bounds the enum for exhaustive switches.
	NumActions
)

var actionNames = [NumActions]string{"deliver", "drop", "dup", "delay"}

// String implements fmt.Stringer.
func (a Action) String() string {
	if a >= NumActions {
		return "Action(" + strconv.Itoa(int(a)) + ")"
	}
	return actionNames[a]
}

// Rule is one scripted fault: it matches messages by kind, source, and
// destination (each -1 = wildcard) and applies Action to the Nth match
// (1-based; Nth == 0 applies to every match). Rules are consulted in order;
// the first rule that fires wins, but every rule whose matcher matches has
// its occurrence counter advanced, so independent rules count independently
// of one another's firing.
type Rule struct {
	Kind int // netsim.Kind as int; -1 matches any kind
	Src  int // source node; -1 matches any
	Dst  int // destination node; -1 matches any
	Nth  int // 1-based occurrence to hit; 0 = every occurrence

	Action Action
	Delay  event.Time // extra delay for Delay, spacing for Duplicate; 0 = drawn from jitter
}

// Config describes a fault plan. The zero value injects nothing.
type Config struct {
	// Seed seeds the plan's private splitmix64 stream. Two plans with equal
	// Config make identical decisions for identical call sequences.
	Seed uint64

	// Drop, Dup, and Delay are per-message probabilities in [0, 1] for the
	// corresponding fault. They are evaluated in that order and at most one
	// fault applies per send.
	Drop  float64
	Dup   float64
	Delay float64

	// Jitter bounds the extra delay attached to Delay faults, Duplicate
	// copies, and converted drops: delays are drawn uniformly from
	// [1, Jitter]. Zero selects DefaultJitter.
	Jitter event.Time

	// DropByKind overrides Drop for specific message kinds (keyed by
	// netsim.Kind as int). nil = no overrides.
	DropByKind map[int]float64

	// DropByLink overrides Drop (after DropByKind) for specific directed
	// links, keyed by [src, dst]. nil = no overrides.
	DropByLink map[[2]int]float64

	// Rules are scripted faults, consulted before the probabilistic draws.
	Rules []Rule
}

// Enabled reports whether the config injects any fault at all.
func (c *Config) Enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Delay > 0 ||
		len(c.DropByKind) > 0 || len(c.DropByLink) > 0 || len(c.Rules) > 0
}

// Validate reports the first field of c that no plan can honour on a network
// with the given number of message kinds: a probability outside [0, 1] or
// NaN, a negative Jitter, a DropByKind key outside [0, kinds), or a
// DropByLink endpoint below 0, checking map entries in key order so the
// report is stable. Every entry point that builds a Config from
// outside input (Parse, persisted soak specs) calls it, so bad input fails
// with a named error instead of crashing the run. The kind count comes from
// the caller because the message kinds belong to netsim, which imports this
// package.
func (c *Config) Validate(kinds int) error {
	if err := cmp.Or(checkProb("drop", c.Drop), checkProb("dup", c.Dup), checkProb("delay", c.Delay)); err != nil {
		return err
	}
	if c.Jitter < 0 {
		return fmt.Errorf("faultinj: negative jitter %d", c.Jitter)
	}
	for _, k := range slices.Sorted(maps.Keys(c.DropByKind)) {
		if k < 0 || k >= kinds {
			return fmt.Errorf("faultinj: dropkind %d outside [0, %d)", k, kinds)
		}
		if err := checkProb("dropkind "+strconv.Itoa(k), c.DropByKind[k]); err != nil {
			return err
		}
	}
	byNodes := func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) }
	for _, l := range slices.SortedFunc(maps.Keys(c.DropByLink), byNodes) {
		name := fmt.Sprintf("droplink %d-%d", l[0], l[1])
		if l[0] < 0 || l[1] < 0 {
			return fmt.Errorf("faultinj: %s: negative node", name)
		}
		if err := checkProb(name, c.DropByLink[l]); err != nil {
			return err
		}
	}
	return nil
}

// checkProb range-checks one probability; NaN fails both comparisons.
func checkProb(name string, p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("faultinj: %s probability %v outside [0, 1]", name, p)
	}
	return nil
}

// DefaultJitter is the delay bound used when Config.Jitter is zero.
const DefaultJitter event.Time = 16

// Stats counts the decisions a plan has made.
type Stats struct {
	Decisions  int64 // total Decide calls
	Dropped    int64 // messages dropped
	Duplicated int64 // messages duplicated
	Delayed    int64 // messages delayed (including conversions)
	Converted  int64 // drop/dup decisions on non-droppable kinds downgraded to delays
	Scripted   int64 // decisions taken by a scripted rule
}

// Decision is the outcome of consulting the plan for one message send.
type Decision struct {
	Action Action
	// Delay is the extra delivery delay for Delay, or the spacing of the
	// second copy for Duplicate. Always >= 1 for those actions.
	Delay event.Time
	// Scripted marks a decision forced by a Rule. Scripted drops and
	// duplicates apply even to message kinds the probabilistic model would
	// only delay.
	Scripted bool
}

// Plan is an instantiated fault plan. It is not safe for concurrent use —
// like the rest of the simulator it runs single-threaded under the event
// queue.
type Plan struct {
	cfg   Config
	rng   *rng.RNG
	hits  []int // per-rule occurrence counters
	stats Stats

	// kindDrop/kindSet are the DropByKind overrides compiled at New time into
	// a dense table indexed by kind, and linkDrop the DropByLink overrides
	// sorted by (src, dst), so Decide never hashes a map key on the hot path.
	kindDrop []float64
	kindSet  []bool
	linkDrop []linkOverride
}

// linkOverride is one compiled DropByLink entry.
type linkOverride struct {
	src, dst int
	prob     float64
}

// New builds a plan from cfg. The config is copied; mutating cfg afterwards
// does not affect the plan.
func New(cfg Config) *Plan {
	p := &Plan{
		cfg: cfg,
		rng: rng.New(cfg.Seed),
	}
	if len(cfg.Rules) > 0 {
		p.cfg.Rules = append([]Rule(nil), cfg.Rules...)
		p.hits = make([]int, len(cfg.Rules))
	}
	if len(cfg.DropByKind) > 0 {
		maxKind := 0
		//dsi:anyorder computing a max over distinct keys is order-independent
		for k := range cfg.DropByKind {
			if k > maxKind {
				maxKind = k
			}
		}
		p.kindDrop = make([]float64, maxKind+1)
		p.kindSet = make([]bool, maxKind+1)
		//dsi:anyorder dense-table writes to distinct keys are order-independent
		for k, v := range cfg.DropByKind {
			if k >= 0 {
				p.kindDrop[k] = v
				p.kindSet[k] = true
			}
		}
	}
	if len(cfg.DropByLink) > 0 {
		p.linkDrop = make([]linkOverride, 0, len(cfg.DropByLink))
		//dsi:anyorder the entries are sorted by (src, dst) below
		for k, v := range cfg.DropByLink {
			p.linkDrop = append(p.linkDrop, linkOverride{src: k[0], dst: k[1], prob: v})
		}
		sort.Slice(p.linkDrop, func(i, j int) bool {
			if p.linkDrop[i].src != p.linkDrop[j].src {
				return p.linkDrop[i].src < p.linkDrop[j].src
			}
			return p.linkDrop[i].dst < p.linkDrop[j].dst
		})
	}
	return p
}

// Stats returns a copy of the plan's decision counters.
func (p *Plan) Stats() Stats { return p.stats }

// RuleHits returns the per-rule match counters (how many messages matched
// each scripted rule's criteria, whether or not the rule fired). The slice
// aliases plan state; callers must not mutate it.
func (p *Plan) RuleHits() []int { return p.hits }

// Decide assigns a fate to one message send. kind is the netsim.Kind as an
// int; droppable reports whether the protocol can recover from losing this
// kind (false converts probabilistic drop/dup into delay). Decide draws from
// the plan's private stream, so call order determines the decision sequence.
//
//dsi:hotpath
func (p *Plan) Decide(kind, src, dst int, droppable bool) Decision {
	p.stats.Decisions++
	for i := range p.cfg.Rules {
		r := &p.cfg.Rules[i]
		if r.Kind >= 0 && r.Kind != kind {
			continue
		}
		if r.Src >= 0 && r.Src != src {
			continue
		}
		if r.Dst >= 0 && r.Dst != dst {
			continue
		}
		p.hits[i]++
		if r.Nth != 0 && p.hits[i] != r.Nth {
			continue
		}
		return p.scripted(r)
	}

	dropP := p.cfg.Drop
	if kind >= 0 && kind < len(p.kindSet) && p.kindSet[kind] {
		dropP = p.kindDrop[kind]
	}
	for i := range p.linkDrop {
		if p.linkDrop[i].src == src && p.linkDrop[i].dst == dst {
			dropP = p.linkDrop[i].prob
			break
		}
	}
	if dropP > 0 && p.rng.Float64() < dropP {
		if !droppable {
			return p.convert()
		}
		p.stats.Dropped++
		return Decision{Action: Drop}
	}
	if p.cfg.Dup > 0 && p.rng.Float64() < p.cfg.Dup {
		if !droppable {
			return p.convert()
		}
		p.stats.Duplicated++
		return Decision{Action: Duplicate, Delay: p.jitter()}
	}
	if p.cfg.Delay > 0 && p.rng.Float64() < p.cfg.Delay {
		p.stats.Delayed++
		return Decision{Action: Delay, Delay: p.jitter()}
	}
	return Decision{}
}

// scripted finalizes a fired rule into a decision.
//
//dsi:hotpath
func (p *Plan) scripted(r *Rule) Decision {
	p.stats.Scripted++
	d := Decision{Action: r.Action, Delay: r.Delay, Scripted: true}
	switch r.Action {
	case Deliver:
	case Drop:
		p.stats.Dropped++
		d.Delay = 0
	case Duplicate:
		p.stats.Duplicated++
		if d.Delay <= 0 {
			d.Delay = p.jitter()
		}
	case Delay:
		p.stats.Delayed++
		if d.Delay <= 0 {
			d.Delay = p.jitter()
		}
	case NumActions:
		panic("faultinj: invalid rule action")
	}
	return d
}

// convert downgrades a probabilistic drop/dup on a non-droppable kind into a
// bounded delay.
//
//dsi:hotpath
func (p *Plan) convert() Decision {
	p.stats.Converted++
	p.stats.Delayed++
	return Decision{Action: Delay, Delay: p.jitter()}
}

// jitter draws an extra delay uniformly from [1, Jitter].
//
//dsi:hotpath
func (p *Plan) jitter() event.Time {
	j := p.cfg.Jitter
	if j <= 0 {
		j = DefaultJitter
	}
	return 1 + event.Time(p.rng.Uint64()%uint64(j))
}

// Parse builds a Config from a comma-separated spec string, e.g.
//
//	drop=0.05,dup=0.01,delay=0.2,jitter=40,seed=7
//	drop=0.1,dropkind=Inv:0.5,droplink=2-5:0.25
//
// Recognized keys:
//
//	seed=<uint>          stream seed (default 0)
//	drop=<p>             global drop probability
//	dup=<p>              duplication probability
//	delay=<p>            delay probability
//	jitter=<cycles>      delay bound (default DefaultJitter)
//	dropkind=<kind>:<p>  per-kind drop override; repeatable
//	droplink=<s>-<d>:<p> per-link drop override; repeatable
//
// kinds is the network's message-kind count, and kindByName resolves
// message-kind names (and decimal kind numbers) for dropkind; pass nil to
// accept numeric kinds only. The result passes Validate(kinds). An empty
// spec yields the zero Config.
func Parse(spec string, kinds int, kindByName func(string) (int, bool)) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return cfg, fmt.Errorf("faultinj: %q: want key=value", field)
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(val, 0, 64)
		case "drop":
			cfg.Drop, err = parseProb(val)
		case "dup":
			cfg.Dup, err = parseProb(val)
		case "delay":
			cfg.Delay, err = parseProb(val)
		case "jitter":
			var j int64
			j, err = strconv.ParseInt(val, 0, 64)
			cfg.Jitter = event.Time(j)
		case "dropkind":
			name, pstr, ok := strings.Cut(val, ":")
			if !ok {
				return cfg, fmt.Errorf("faultinj: %q: want dropkind=<kind>:<p>", field)
			}
			kind, kerr := resolveKind(name, kindByName)
			if kerr != nil {
				return cfg, fmt.Errorf("faultinj: %q: %v", field, kerr)
			}
			var prob float64
			if prob, err = parseProb(pstr); err == nil {
				if cfg.DropByKind == nil {
					cfg.DropByKind = make(map[int]float64)
				}
				cfg.DropByKind[kind] = prob
			}
		case "droplink":
			link, pstr, ok := strings.Cut(val, ":")
			srcStr, dstStr, ok2 := strings.Cut(link, "-")
			if !ok || !ok2 {
				return cfg, fmt.Errorf("faultinj: %q: want droplink=<src>-<dst>:<p>", field)
			}
			src, serr := strconv.Atoi(strings.TrimSpace(srcStr))
			dst, derr := strconv.Atoi(strings.TrimSpace(dstStr))
			if serr != nil || derr != nil {
				return cfg, fmt.Errorf("faultinj: %q: bad link nodes", field)
			}
			var prob float64
			if prob, err = parseProb(pstr); err == nil {
				if cfg.DropByLink == nil {
					cfg.DropByLink = make(map[[2]int]float64)
				}
				cfg.DropByLink[[2]int{src, dst}] = prob
			}
		default:
			return cfg, fmt.Errorf("faultinj: unknown key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("faultinj: %q: %v", field, err)
		}
	}
	return cfg, cfg.Validate(kinds)
}

// parseProb parses a probability; Validate range-checks it.
func parseProb(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

// resolveKind resolves a message-kind name or decimal number.
func resolveKind(name string, kindByName func(string) (int, bool)) (int, error) {
	name = strings.TrimSpace(name)
	if n, err := strconv.Atoi(name); err == nil {
		return n, nil
	}
	if kindByName != nil {
		if k, ok := kindByName(name); ok {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown message kind %q", name)
}
