// Package simcache is the content-addressed result cache above the
// simulation kernel. The simulator is fully deterministic: a cell's
// (workload, protocol, machine parameters, fault plan, seed) completely
// determines its Result, so a campaign, an artifact run or a benchmark that
// repeats a cell can serve the repeat from memory instead of simulating it
// again.
//
// The cache is keyed by a canonical digest of the request (this file) and
// deduplicates concurrent identical requests with singleflight semantics
// (simcache.go). It holds results under a byte budget in LRU order. Until
// the budget first fills it stores every result; after that it admits a
// result that would overflow the budget only if the result is worth at
// least the LRU tail it would displace, where a result's worth is its
// recent request count (a count-min sketch, as in TinyLFU) times its
// recompute cost (Result.Kernel.Events) per byte held, as in
// GreedyDual-Size-Frequency. A refused result still goes to its caller and
// to every waiter. Everything the rule reads is deterministic, so a request
// stream's hits, evictions and refusals repeat exactly.
//
// Cached results are bit-identical to freshly computed ones: the Result
// struct is returned by value, and its slices are shared with the cache and
// treated as read-only by every caller, exactly as the rest of the repo
// already treats Results held in experiment matrices.
package simcache

import (
	"cmp"
	"maps"
	"math"
	"slices"

	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/proto"
)

// SchemaVersion tags every key. Bump it whenever the Result layout or any
// protocol/workload semantics change, so entries cached by an older build
// can never be mistaken for current ones (relevant once keys outlive a
// process — e.g. a persistent or networked cache tier).
const SchemaVersion = 3

// Key is the 128-bit canonical digest of a Request. Two Requests with equal
// Keys describe the same deterministic cell.
type Key struct {
	Hi, Lo uint64
}

// Request names one simulation cell at the request level — the identity a
// service front-end would hash: registry workload and scale by name,
// protocol by the name proto.NameOf gives its (consistency, policy) pair (a
// label's name for a label's pair), and the machine parameters that shape
// the run. Zero-valued fields hash as
// zero: a caller that relies on machine.Config defaults gets a different
// key than one that spells the same values out, which can only cause a
// spurious miss, never a wrong hit.
type Request struct {
	Workload string // registry name, e.g. "em3d", "zipf"
	Scale    string // "test" or "paper"
	Protocol string // protocol name (proto.NameOf), e.g. "SC", "V", "W+DSI"

	Processors         int
	CacheBytes         int
	CacheAssoc         int
	NetworkLatency     int64
	WriteBufferEntries int
	SharerLimit        int
	Seed               uint64
	MaxSteps           uint64

	Faults *faultinj.Config
}

// RequestOf builds the canonical request for a machine config plus the
// workload and scale names the caller resolved it from; cfg's consistency
// and policy name the protocol. Configs with a Sink attached have side
// effects beyond the Result and must not be cached — Cache.Run runs them
// without asking for a key.
func RequestOf(workload, scale string, cfg machine.Config) Request {
	return Request{
		Workload: workload, Scale: scale, Protocol: proto.NameOf(cfg.Consistency, cfg.Policy),
		Processors: cfg.Processors, CacheBytes: cfg.CacheBytes, CacheAssoc: cfg.CacheAssoc,
		NetworkLatency: int64(cfg.NetworkLatency), WriteBufferEntries: cfg.WriteBufferEntries,
		SharerLimit: cfg.SharerLimit, Seed: cfg.Seed, MaxSteps: cfg.MaxSteps, Faults: cfg.Faults,
	}
}

// Key returns the request's canonical digest. Each field is hashed
// independently as a (name, values) pair and the per-field hashes are
// combined commutatively, so the digest depends on which fields hold which
// values but not on the order they are absorbed — canonicalization by
// construction rather than by careful ordering, and directly testable.
func (r Request) Key() Key {
	var d digest
	d.absorb(fSchema.hash(SchemaVersion))
	d.absorb(fWorkload.hash(fnv(r.Workload)))
	d.absorb(fScale.hash(fnv(r.Scale)))
	d.absorb(fProtocol.hash(fnv(r.Protocol)))
	d.absorb(fProcessors.hash(uint64(r.Processors)))
	d.absorb(fCacheBytes.hash(uint64(r.CacheBytes)))
	d.absorb(fCacheAssoc.hash(uint64(r.CacheAssoc)))
	d.absorb(fNetLatency.hash(uint64(r.NetworkLatency)))
	d.absorb(fWBEntries.hash(uint64(r.WriteBufferEntries)))
	d.absorb(fSharerLimit.hash(uint64(r.SharerLimit)))
	d.absorb(fSeed.hash(r.Seed))
	d.absorb(fMaxSteps.hash(r.MaxSteps))
	absorbFaults(&d, r.Faults)
	return d.key()
}

// The key's fields, their names hashed once here rather than on every Key.
var (
	fSchema      = fieldOf("schema")
	fWorkload    = fieldOf("workload")
	fScale       = fieldOf("scale")
	fProtocol    = fieldOf("protocol")
	fProcessors  = fieldOf("processors")
	fCacheBytes  = fieldOf("cachebytes")
	fCacheAssoc  = fieldOf("cacheassoc")
	fNetLatency  = fieldOf("netlatency")
	fWBEntries   = fieldOf("wbentries")
	fSharerLimit = fieldOf("sharerlimit")
	fSeed        = fieldOf("seed")
	fMaxSteps    = fieldOf("maxsteps")

	fFaults          = fieldOf("faults")
	fFaultSeed       = fieldOf("fault.seed")
	fFaultDrop       = fieldOf("fault.drop")
	fFaultDup        = fieldOf("fault.dup")
	fFaultDelay      = fieldOf("fault.delay")
	fFaultJitter     = fieldOf("fault.jitter")
	fFaultDropByKind = fieldOf("fault.dropbykind")
	fFaultDropByLink = fieldOf("fault.dropbylink")
	fFaultRules      = fieldOf("fault.rules")
)

// absorbFaults hashes the fault plan. The per-kind and per-link overrides
// are sorted into a canonical order first, as the plan itself consumes
// them; Rules stay in slice order because rule order is semantically
// meaningful (each rule counts its own Nth matches).
func absorbFaults(d *digest, fc *faultinj.Config) {
	if fc == nil {
		d.absorb(fFaults.hash(0))
		return
	}
	d.absorb(fFaults.hash(1))
	d.absorb(fFaultSeed.hash(fc.Seed))
	d.absorb(fFaultDrop.hash(math.Float64bits(fc.Drop)))
	d.absorb(fFaultDup.hash(math.Float64bits(fc.Dup)))
	d.absorb(fFaultDelay.hash(math.Float64bits(fc.Delay)))
	d.absorb(fFaultJitter.hash(uint64(fc.Jitter)))
	if len(fc.DropByKind) > 0 {
		kinds := slices.Sorted(maps.Keys(fc.DropByKind))
		vals := make([]uint64, 0, 2*len(kinds))
		for _, k := range kinds {
			vals = append(vals, uint64(k), math.Float64bits(fc.DropByKind[k]))
		}
		d.absorb(fFaultDropByKind.hash(vals...))
	}
	if len(fc.DropByLink) > 0 {
		links := slices.SortedFunc(slices.Values(fc.DropByLink), func(a, b faultinj.LinkDrop) int {
			return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
		})
		vals := make([]uint64, 0, 3*len(links))
		for _, l := range links {
			vals = append(vals, uint64(l.Src), uint64(l.Dst), math.Float64bits(l.Prob))
		}
		d.absorb(fFaultDropByLink.hash(vals...))
	}
	if len(fc.Rules) > 0 {
		vals := make([]uint64, 0, 6*len(fc.Rules))
		for _, r := range fc.Rules {
			vals = append(vals,
				uint64(r.Kind), uint64(r.Src), uint64(r.Dst),
				uint64(r.Nth), uint64(r.Action), uint64(r.Delay))
		}
		d.absorb(fFaultRules.hash(vals...))
	}
}

// digest accumulates per-field hashes in two commutative lanes (sum and
// xor) plus a count, then finalizes both into a 128-bit key. Commutativity
// is what makes the digest field-order independent; the two independent
// lanes and the splitmix finalizer keep accidental cancellation at
// birthday-bound odds.
type digest struct {
	sum, xor uint64
	n        uint64
}

func (d *digest) absorb(field uint64) {
	d.sum += field
	d.xor ^= field
	d.n++
}

func (d *digest) key() Key {
	return Key{
		Hi: mix(d.sum ^ mix(d.xor^d.n)),
		Lo: mix(d.xor + mix(d.sum+d.n)),
	}
}

// field is one key field: the fnv of its name, which seeds the splitmix
// chain its hash runs over its values.
type field uint64

// fieldOf returns the field named name.
func fieldOf(name string) field { return field(fnv(name)) }

// hash hashes the field's (name, values) pair: the name's fnv seeds a
// splitmix chain over the values, so values are order-sensitive within a
// field while fields stay order-free across the digest.
func (f field) hash(vals ...uint64) uint64 {
	x := uint64(f)
	for _, v := range vals {
		x = mix(x ^ v*0x9e3779b97f4a7c15)
	}
	return mix(x ^ uint64(len(vals)))
}

// fnv is the 64-bit FNV-1a string hash.
func fnv(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
