package soak

import (
	"testing"
)

// SeedOf is a pure function: stable per (campaign, cell), distinct across
// neighboring cells and campaigns.
func TestSeedOfDeterministicAndSpread(t *testing.T) {
	if SeedOf(1, 5) != SeedOf(1, 5) {
		t.Fatal("SeedOf not deterministic")
	}
	seen := make(map[uint64]bool)
	for c := uint64(0); c < 4; c++ {
		for i := 0; i < 512; i++ {
			s := SeedOf(c, i)
			if seen[s] {
				t.Fatalf("seed collision at campaign %d cell %d", c, i)
			}
			seen[s] = true
		}
	}
}

// Cell decode is a bijection onto the space: every index resolves, template
// varies fastest, and the same index always resolves identically.
func TestSpaceCellDecode(t *testing.T) {
	s := Space{
		Workloads: []string{"zipf", LitmusWorkload},
		Protocols: ProtocolsByName("SC", "W+DSI"),
		Templates: DefaultTemplates(),
		Reps:      3,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Cells(), 2*2*4*3; got != want {
		t.Fatalf("Cells() = %d, want %d", got, want)
	}
	type key struct {
		w, p, tm string
	}
	counts := make(map[key]int)
	for i := 0; i < s.Cells(); i++ {
		c := s.Cell(7, i)
		if c.Index != i {
			t.Fatalf("cell %d decoded with index %d", i, c.Index)
		}
		if c.Seed != SeedOf(7, i) {
			t.Fatalf("cell %d seed not SeedOf", i)
		}
		counts[key{c.Workload, c.Protocol.Name, c.Template.Name}]++
	}
	if len(counts) != 2*2*4 {
		t.Fatalf("decode covered %d distinct combos, want 16", len(counts))
	}
	for k, n := range counts {
		if n != 3 {
			t.Fatalf("combo %v hit %d times, want Reps=3", k, n)
		}
	}
	// Template varies fastest: cells 0..3 share workload+protocol, sweep
	// all four templates.
	base := s.Cell(7, 0)
	for i := 1; i < 4; i++ {
		c := s.Cell(7, i)
		if c.Workload != base.Workload || c.Protocol.Name != base.Protocol.Name {
			t.Fatalf("cell %d changed workload/protocol before templates were exhausted", i)
		}
		if c.Template.Name == base.Template.Name {
			t.Fatalf("cell %d repeated template %q", i, c.Template.Name)
		}
	}
}

// DefaultSpace is the ISSUE 9 acceptance shape: >= 2000 cells covering the
// paper and traffic workloads plus litmus, under three protocols and at
// least three faulty templates.
func TestDefaultSpaceShape(t *testing.T) {
	s := DefaultSpace()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Cells() < 2000 {
		t.Fatalf("default campaign has %d cells, want >= 2000", s.Cells())
	}
	faulty := 0
	for _, tm := range s.Templates {
		if tm.Faults != nil {
			faulty++
		}
	}
	if faulty < 3 {
		t.Fatalf("default campaign has %d faulty templates, want >= 3", faulty)
	}
	if len(s.Protocols) < 3 {
		t.Fatalf("default campaign has %d protocols, want >= 3", len(s.Protocols))
	}
}

// Shards partition the index space exactly: every index owned by exactly
// one shard, and the unsharded zero value owns everything.
func TestShardPartition(t *testing.T) {
	const n = 1000
	for _, count := range []int{2, 3, 7} {
		for k := 0; k < n; k++ {
			owners := 0
			for i := 1; i <= count; i++ {
				if (Shard{Index: i, Count: count}).Owns(k) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("index %d owned by %d of %d shards", k, owners, count)
			}
		}
	}
	for k := 0; k < n; k++ {
		if !(Shard{}).Owns(k) {
			t.Fatalf("unsharded zero value does not own %d", k)
		}
	}
}

// ParseShard round-trips valid specs and rejects malformed ones.
func TestParseShard(t *testing.T) {
	s, err := ParseShard("2/3")
	if err != nil || s.Index != 2 || s.Count != 3 || s.String() != "2/3" {
		t.Fatalf("ParseShard(2/3) = %+v, %v", s, err)
	}
	if s, err = ParseShard(""); err != nil || s.Count != 0 {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	for _, bad := range []string{"0/3", "4/3", "x/3", "3", "-1/2", "1/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Fatalf("ParseShard(%q) accepted", bad)
		}
	}
}

// ProtocolsByName resolves known labels and panics on unknown ones.
func TestProtocolsByName(t *testing.T) {
	prs := ProtocolsByName("SC", "V")
	if len(prs) != 2 || prs[0].Name != "SC" || prs[1].Name != "V" {
		t.Fatalf("resolved %+v", prs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown protocol did not panic")
		}
	}()
	ProtocolsByName("NOPE")
}

// Space validation rejects empty axes and unknown workloads.
func TestSpaceValidate(t *testing.T) {
	if err := (Space{}).Validate(); err == nil {
		t.Fatal("empty space validated")
	}
	s := Space{
		Workloads: []string{"no-such-workload"},
		Protocols: ProtocolsByName("SC"),
		Templates: DefaultTemplates(),
	}
	if err := s.Validate(); err == nil {
		t.Fatal("unknown workload validated")
	}
}

// testSpace is the small space the engine tests sweep: one registry
// workload and the litmus generator under two protocols and two templates.
func testSpace() Space {
	return Space{
		Workloads: []string{"zipf", LitmusWorkload},
		Protocols: ProtocolsByName("SC", "W+DSI"),
		Templates: []Template{DefaultTemplates()[0], DefaultTemplates()[1]},
		Reps:      2,
	}
}
