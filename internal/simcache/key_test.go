package simcache

import (
	"testing"

	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
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
			DropByLink: map[[2]int]float64{{0, 1}: 0.3, {2, 0}: 0.4},
			Rules: []faultinj.Rule{
				{Kind: 2, Src: 0, Dst: 1, Nth: 3, Action: faultinj.Drop},
				{Kind: -1, Src: -1, Dst: -1, Nth: 0, Action: faultinj.Delay, Delay: 7},
			},
		},
	}
}

func TestKeyFieldOrderIndependence(t *testing.T) {
	fields := []uint64{
		fieldHash("workload", fnv("em3d")),
		fieldHash("processors", 8),
		fieldHash("seed", 0x5eed),
		fieldHash("fault.jitter", 20),
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
	// Rebuild the maps in a different insertion order: iteration order must
	// not leak into the key.
	b.Faults.DropByKind = map[int]float64{3: 0.2, 1: 0.1}
	b.Faults.DropByLink = map[[2]int]float64{{2, 0}: 0.4, {0, 1}: 0.3}
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
		{"fault-dropbylink", func(r *Request) { r.Faults.DropByLink[[2]int{0, 1}] = 0.35 }},
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

func TestRequestOfRoundTrip(t *testing.T) {
	cfg := machine.Config{
		Processors: 8, CacheBytes: 2048, CacheAssoc: 4,
		NetworkLatency: 40, WriteBufferEntries: 16, SharerLimit: 8,
		Seed: 0x5eed, MaxSteps: 1 << 20,
		Faults: &faultinj.Config{Seed: 99, Drop: 0.01},
	}
	a := RequestOf("em3d", "test", "W+DSI", cfg)
	b := RequestOf("em3d", "test", "W+DSI", cfg)
	if a.Key() != b.Key() {
		t.Fatal("RequestOf is not stable for an identical config")
	}
	cfg.Seed++
	if RequestOf("em3d", "test", "W+DSI", cfg).Key() == a.Key() {
		t.Fatal("config seed not part of the request identity")
	}
	if RequestOf("em3d", "test", "V", cfg).Key() == RequestOf("em3d", "test", "W+DSI", cfg).Key() {
		t.Fatal("protocol label not part of the request identity")
	}
}
