package simcache

import (
	"testing"

	"dsisim/internal/core"
	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/proto"
)

// fullRequest returns a request with every field set to a distinctive
// non-zero value, so single-field perturbation tests exercise real state.
func fullRequest() Request {
	return Request{
		Workload: "em3d", Scale: "test", Protocol: "W+DSI",
		Processors: 8, CacheBytes: 2048, CacheAssoc: 4,
		NetworkLatency: 40, WriteBufferEntries: 16, SharerLimit: 8,
		Seed: 0x5eed, MaxSteps: 1 << 20,
		Faults: &faultinj.Config{
			Seed: 99, Drop: 0.01, Dup: 0.002, Delay: 0.05, Jitter: 20,
			DropByKind: map[int]float64{1: 0.1, 3: 0.2},
			DropByLink: []faultinj.LinkDrop{{Src: 0, Dst: 1, Prob: 0.3}, {Src: 2, Dst: 0, Prob: 0.4}},
			Rules: []faultinj.Rule{
				{Kind: 2, Src: 0, Dst: 1, Nth: 3, Action: faultinj.Drop},
				{Kind: -1, Src: -1, Dst: -1, Nth: 0, Action: faultinj.Delay, Delay: 7},
			},
		},
	}
}

func TestKeyFieldOrderIndependence(t *testing.T) {
	fields := []uint64{
		fWorkload.hash(fnv("em3d")),
		fProcessors.hash(8),
		fSeed.hash(0x5eed),
		fFaultJitter.hash(20),
	}
	var fwd, rev digest
	for _, f := range fields {
		fwd.absorb(f)
	}
	for i := len(fields) - 1; i >= 0; i-- {
		rev.absorb(fields[i])
	}
	if fwd.key() != rev.key() {
		t.Fatalf("digest is absorb-order sensitive: %v vs %v", fwd.key(), rev.key())
	}
}

func TestKeyDeterministic(t *testing.T) {
	a, b := fullRequest(), fullRequest()
	// Rebuild the overrides in a different order: neither map iteration nor
	// the order links are listed in may leak into the key.
	b.Faults.DropByKind = map[int]float64{3: 0.2, 1: 0.1}
	b.Faults.DropByLink = []faultinj.LinkDrop{{Src: 2, Dst: 0, Prob: 0.4}, {Src: 0, Dst: 1, Prob: 0.3}}
	if a.Key() != b.Key() {
		t.Fatalf("equal requests hash differently: %v vs %v", a.Key(), b.Key())
	}
}

// TestKeyPerturbation flips every field of a fully-populated request one at
// a time and checks each flip moves the key — no field is silently dropped
// from the identity.
func TestKeyPerturbation(t *testing.T) {
	base := fullRequest().Key()
	cases := []struct {
		name string
		mut  func(*Request)
	}{
		{"workload", func(r *Request) { r.Workload = "ocean" }},
		{"scale", func(r *Request) { r.Scale = "paper" }},
		{"protocol", func(r *Request) { r.Protocol = "V" }},
		{"processors", func(r *Request) { r.Processors = 16 }},
		{"cachebytes", func(r *Request) { r.CacheBytes = 4096 }},
		{"cacheassoc", func(r *Request) { r.CacheAssoc = 2 }},
		{"netlatency", func(r *Request) { r.NetworkLatency = 41 }},
		{"wbentries", func(r *Request) { r.WriteBufferEntries = 8 }},
		{"sharerlimit", func(r *Request) { r.SharerLimit = 4 }},
		{"seed", func(r *Request) { r.Seed++ }},
		{"maxsteps", func(r *Request) { r.MaxSteps++ }},
		{"faults-nil", func(r *Request) { r.Faults = nil }},
		{"fault-seed", func(r *Request) { r.Faults.Seed++ }},
		{"fault-drop", func(r *Request) { r.Faults.Drop = 0.02 }},
		{"fault-dup", func(r *Request) { r.Faults.Dup = 0.003 }},
		{"fault-delay", func(r *Request) { r.Faults.Delay = 0.06 }},
		{"fault-jitter", func(r *Request) { r.Faults.Jitter = 21 }},
		{"fault-dropbykind", func(r *Request) { r.Faults.DropByKind[1] = 0.15 }},
		{"fault-dropbylink", func(r *Request) { r.Faults.DropByLink[0].Prob = 0.35 }},
		{"fault-rule-nth", func(r *Request) { r.Faults.Rules[0].Nth = 4 }},
		{"fault-rule-action", func(r *Request) { r.Faults.Rules[1].Action = faultinj.Duplicate }},
		{"fault-rule-order", func(r *Request) {
			r.Faults.Rules[0], r.Faults.Rules[1] = r.Faults.Rules[1], r.Faults.Rules[0]
		}},
		{"fault-rule-extra", func(r *Request) {
			r.Faults.Rules = append(r.Faults.Rules, faultinj.Rule{Kind: 5, Action: faultinj.Drop})
		}},
	}
	seen := map[Key]string{base: "base"}
	for _, tc := range cases {
		r := fullRequest()
		// fullRequest rebuilds the maps/slices each call, so mutations never
		// alias across cases.
		tc.mut(&r)
		k := r.Key()
		if k == base {
			t.Errorf("%s: perturbation did not change the key", tc.name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", tc.name, prev)
		}
		seen[k] = tc.name
	}
}

// TestKeyNilVsZeroDistinct pins the nil-presence bit: a nil Faults must not
// collide with a zero-valued one.
func TestKeyNilVsZeroDistinct(t *testing.T) {
	r := fullRequest()
	r.Faults = nil
	withNil := r.Key()
	r.Faults = &faultinj.Config{}
	if r.Key() == withNil {
		t.Fatal("nil and zero-valued Faults hash to the same key")
	}
}

// RequestOf names cfg's protocol from its consistency and policy, as the
// label that configures them; the protocol is part of the key.
func TestRequestOfRoundTrip(t *testing.T) {
	l, err := proto.LabelOf("W+DSI")
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Config{
		Processors: 8, CacheBytes: 2048, CacheAssoc: 4,
		NetworkLatency: 40, WriteBufferEntries: 16, SharerLimit: 8,
		Consistency: l.Consistency, Policy: l.Policy,
		Seed: 0x5eed, MaxSteps: 1 << 20,
		Faults: &faultinj.Config{Seed: 99, Drop: 0.01},
	}
	a := RequestOf("em3d", "test", cfg)
	if a.Protocol != l.Name {
		t.Fatalf("protocol %q, want the label's name %q", a.Protocol, l.Name)
	}
	if b := RequestOf("em3d", "test", cfg); a.Key() != b.Key() {
		t.Fatal("RequestOf is not stable for an identical config")
	}
	cfg.Seed++
	if RequestOf("em3d", "test", cfg).Key() == a.Key() {
		t.Fatal("config seed not part of the request identity")
	}
	cfg.Seed--
	cfg.Policy.Identifier = core.States
	if RequestOf("em3d", "test", cfg).Key() == a.Key() {
		t.Fatal("policy not part of the request identity")
	}
}

// TestKeyValuesPinned pins the keys of a few requests, one with a fault plan
// and one with every field set, to their values before the field-name
// hashes were precomputed: a key that changes value orphans every entry a
// longer-lived cache tier holds, so it may change only with SchemaVersion.
func TestKeyValuesPinned(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want Key
	}{
		{"zero", Request{}, Key{Hi: 0xe456e7537b0f8779, Lo: 0x292a75cc3cde661b}},
		{"defaults", Request{Workload: "em3d", Scale: "test", Protocol: "V", Processors: 8},
			Key{Hi: 0x63f435e1a306229, Lo: 0xe4ed6d0d8b068e11}},
		{"paper", Request{Workload: "ocean", Scale: "paper", Protocol: "W+DSI", Processors: 32,
			CacheBytes: 512 << 10, CacheAssoc: 4, NetworkLatency: 100, WriteBufferEntries: 16,
			Seed: 0x5eed, MaxSteps: 2_000_000_000},
			Key{Hi: 0xbd6a4e6c572803f7, Lo: 0x5ee08a65c25e0d00}},
		{"faults", Request{Workload: "zipf", Scale: "test", Protocol: "SC", Processors: 8,
			CacheBytes: 2048, CacheAssoc: 4, NetworkLatency: 40, WriteBufferEntries: 16, SharerLimit: 4, Seed: 7,
			Faults: &faultinj.Config{Seed: 3, Drop: 0.05, Dup: 0.02, Delay: 0.1, Jitter: 32}},
			Key{Hi: 0x3083b4cc7745cd6d, Lo: 0xe727e2c7e4292367}},
		{"full", fullRequest(), Key{Hi: 0xc93da27c9a9bc348, Lo: 0xbe8faf689d69e248}},
	}
	for _, c := range cases {
		if got := c.req.Key(); got != c.want {
			t.Errorf("%s: key {Hi: %#x, Lo: %#x}, want {Hi: %#x, Lo: %#x}", c.name, got.Hi, got.Lo, c.want.Hi, c.want.Lo)
		}
	}
}

// BenchmarkRequestKey times one key of a soak-shaped request, a scalar
// fault plan included: the digest a result-cache hit computes before its
// lookup.
func BenchmarkRequestKey(b *testing.B) {
	r := Request{Workload: "zipf", Scale: "test", Protocol: "W+DSI", Processors: 8,
		CacheBytes: 2048, CacheAssoc: 4, Seed: 7,
		Faults: &faultinj.Config{Seed: 3, Drop: 0.02, Dup: 0.01, Delay: 0.05}}
	b.ReportAllocs()
	for range b.N {
		_ = r.Key()
	}
}
