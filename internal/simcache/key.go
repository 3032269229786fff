// Package simcache is the content-addressed result cache above the
// simulation kernel. The simulator is fully deterministic: a cell's
// (workload, protocol, machine parameters, fault plan, seed) completely
// determines its Result, so identical requests can be computed once and
// served from memory thereafter — the ROADMAP's service north-star, where
// millions of users hitting the same popular configurations cost one
// simulation each.
//
// The cache is keyed by a canonical digest of the request (this file), holds
// results under an LRU byte budget, and deduplicates concurrent identical
// requests with singleflight semantics (simcache.go). Cached results are
// bit-identical to freshly computed ones: the Result struct is returned by
// value and its slices are treated as read-only by every caller, exactly as
// the rest of the repo already treats Results held in experiment matrices.
package simcache

import (
	"math"
	"sort"

	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
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
// protocol by label (labels map 1:1 onto (consistency, policy) pairs), and
// the machine parameters that shape the run. Zero-valued fields hash as
// zero: a caller that relies on machine.Config defaults gets a different
// key than one that spells the same values out, which can only cause a
// spurious miss, never a wrong hit.
type Request struct {
	Workload string // registry name, e.g. "em3d", "zipf"
	Scale    string // "test" or "paper"
	Protocol string // protocol label (proto.LabelOf), e.g. "SC", "V", "W+DSI"

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
// workload/scale/protocol names the caller resolved it from. Configs with a
// Sink attached have side effects beyond the Result and must not be cached
// — callers gate on that before asking for a key.
func RequestOf(workload, scale, protocol string, cfg machine.Config) Request {
	return Request{
		Workload: workload, Scale: scale, Protocol: protocol,
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
	d.absorb(fieldHash("schema", SchemaVersion))
	d.absorb(fieldHash("workload", fnv(r.Workload)))
	d.absorb(fieldHash("scale", fnv(r.Scale)))
	d.absorb(fieldHash("protocol", fnv(r.Protocol)))
	d.absorb(fieldHash("processors", uint64(r.Processors)))
	d.absorb(fieldHash("cachebytes", uint64(r.CacheBytes)))
	d.absorb(fieldHash("cacheassoc", uint64(r.CacheAssoc)))
	d.absorb(fieldHash("netlatency", uint64(r.NetworkLatency)))
	d.absorb(fieldHash("wbentries", uint64(r.WriteBufferEntries)))
	d.absorb(fieldHash("sharerlimit", uint64(r.SharerLimit)))
	d.absorb(fieldHash("seed", r.Seed))
	d.absorb(fieldHash("maxsteps", r.MaxSteps))
	absorbFaults(&d, r.Faults)
	return d.key()
}

// absorbFaults hashes the fault plan. Map-shaped knobs (DropByKind,
// DropByLink) are sorted into a canonical order first; Rules stay in slice
// order because rule order is semantically meaningful (each rule counts its
// own Nth matches).
func absorbFaults(d *digest, fc *faultinj.Config) {
	if fc == nil {
		d.absorb(fieldHash("faults", 0))
		return
	}
	d.absorb(fieldHash("faults", 1))
	d.absorb(fieldHash("fault.seed", fc.Seed))
	d.absorb(fieldHash("fault.drop", math.Float64bits(fc.Drop)))
	d.absorb(fieldHash("fault.dup", math.Float64bits(fc.Dup)))
	d.absorb(fieldHash("fault.delay", math.Float64bits(fc.Delay)))
	d.absorb(fieldHash("fault.jitter", uint64(fc.Jitter)))
	if len(fc.DropByKind) > 0 {
		kinds := make([]int, 0, len(fc.DropByKind))
		//dsi:anyorder the keys are sorted before hashing
		for k := range fc.DropByKind {
			kinds = append(kinds, k)
		}
		sort.Ints(kinds)
		vals := make([]uint64, 0, 2*len(kinds))
		for _, k := range kinds {
			vals = append(vals, uint64(k), math.Float64bits(fc.DropByKind[k]))
		}
		d.absorb(fieldHash("fault.dropbykind", vals...))
	}
	if len(fc.DropByLink) > 0 {
		links := make([][2]int, 0, len(fc.DropByLink))
		//dsi:anyorder the links are sorted before hashing
		for l := range fc.DropByLink {
			links = append(links, l)
		}
		sort.Slice(links, func(i, j int) bool {
			if links[i][0] != links[j][0] {
				return links[i][0] < links[j][0]
			}
			return links[i][1] < links[j][1]
		})
		vals := make([]uint64, 0, 3*len(links))
		for _, l := range links {
			vals = append(vals, uint64(l[0]), uint64(l[1]), math.Float64bits(fc.DropByLink[l]))
		}
		d.absorb(fieldHash("fault.dropbylink", vals...))
	}
	if len(fc.Rules) > 0 {
		vals := make([]uint64, 0, 6*len(fc.Rules))
		for _, r := range fc.Rules {
			vals = append(vals,
				uint64(r.Kind), uint64(r.Src), uint64(r.Dst),
				uint64(r.Nth), uint64(r.Action), uint64(r.Delay))
		}
		d.absorb(fieldHash("fault.rules", vals...))
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

// fieldHash hashes one (name, values) pair: the fnv of the name seeds a
// splitmix chain over the values, so values are order-sensitive within a
// field while fields stay order-free across the digest.
func fieldHash(name string, vals ...uint64) uint64 {
	x := fnv(name)
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
