package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestSchemeAddAndRate(t *testing.T) {
	ins := platform.MustInstance(10, []float64{5, 5}, nil)
	s := NewScheme(ins)
	s.Add(0, 1, 2)
	s.Add(0, 1, 1.5) // accumulates
	s.Add(0, 2, 0)   // dropped (float dust floor)
	if r := s.Rate(0, 1); r != 3.5 {
		t.Fatalf("Rate = %v, want 3.5", r)
	}
	if s.OutDegree(0) != 1 {
		t.Fatalf("zero-rate edge counted in degree: %d", s.OutDegree(0))
	}
	if s.OutRate(0) != 3.5 || s.InRate(1) != 3.5 {
		t.Fatal("rate sums wrong")
	}
}

func TestSchemeAddPanics(t *testing.T) {
	ins := platform.MustInstance(10, []float64{5}, nil)
	s := NewScheme(ins)
	for _, f := range []func(){
		func() { s.Add(1, 1, 1) },  // self loop
		func() { s.Add(0, 1, -2) }, // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSchemeShift(t *testing.T) {
	ins := platform.MustInstance(10, []float64{5, 5}, nil)
	s := NewScheme(ins)
	s.Add(0, 1, 3)
	s.shift(0, 1, -1)
	if r := s.Rate(0, 1); math.Abs(r-2) > 1e-12 {
		t.Fatalf("after shift: %v", r)
	}
	s.shift(0, 1, -2) // drives to exactly zero: edge removed
	if s.OutDegree(0) != 0 {
		t.Fatal("zeroed edge still counted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic driving edge negative")
		}
	}()
	s.shift(0, 1, -1)
}

func TestSchemeValidateBandwidth(t *testing.T) {
	ins := platform.MustInstance(2, []float64{1}, nil)
	s := NewScheme(ins)
	s.Add(0, 1, 2.5) // source exceeds b0 = 2
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds bandwidth") {
		t.Fatalf("Validate = %v, want bandwidth error", err)
	}
}

func TestSchemeValidateFirewall(t *testing.T) {
	ins := platform.MustInstance(4, []float64{2}, []float64{1, 1})
	s := NewScheme(ins)
	s.Add(2, 3, 0.5) // guarded → guarded
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "firewall") {
		t.Fatalf("Validate = %v, want firewall error", err)
	}
	// Guarded → open is fine.
	ok := NewScheme(ins)
	ok.Add(2, 1, 0.5)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeThroughputExactMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		ins := randomMixedInstance(rng, 2+rng.Intn(5), rng.Intn(5))
		_, s, _, err := SolveAcyclicWordWithWorkspace(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := s.Throughput()
		e, _ := s.ThroughputExact().Float64()
		if math.Abs(f-e) > 1e-6*(1+f) {
			t.Fatalf("trial %d: float %v vs exact %v", trial, f, e)
		}
	}
}

func TestDegreeLowerBoundValues(t *testing.T) {
	cases := []struct {
		b, T float64
		want int
	}{
		{6, 4, 2},
		{4, 4, 1},
		{0, 4, 0},
		{4.0000000001, 4, 1}, // float dust rounds down
		{8, 4, 2},
		{8.1, 4, 3},
		{1, 100, 1},
	}
	for _, c := range cases {
		if got := DegreeLowerBound(c.b, c.T); got != c.want {
			t.Errorf("DegreeLowerBound(%v, %v) = %d, want %d", c.b, c.T, got, c.want)
		}
	}
}

func TestDegreeLowerBoundPanicsOnZeroT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DegreeLowerBound(1, 0)
}

func TestDegreeSlack(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	word, _ := GreedyTest(ins, 4)
	s, err := BuildSchemeWithWorkspace(ins, word, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	per, max := s.DegreeSlack(4)
	if len(per) != 6 {
		t.Fatalf("per-node slice length %d", len(per))
	}
	if max > 3 {
		t.Fatalf("max slack %d > 3", max)
	}
	// Idle nodes report slack 0 regardless of bandwidth.
	idle := NewScheme(ins)
	_, m := idle.DegreeSlack(4)
	if m != 0 {
		t.Fatalf("idle scheme slack %d", m)
	}
}

func TestSchemeGraphAndEdgesDeterministic(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	word, _ := GreedyTest(ins, 4)
	s, err := BuildSchemeWithWorkspace(ins, word, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	e1 := s.Edges()
	e2 := s.Edges()
	if len(e1) != len(e2) {
		t.Fatal("non-deterministic edge count")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("non-deterministic edge order")
		}
	}
	g := s.Graph()
	if g.NumEdges() != s.NumEdges() {
		t.Fatal("graph export lost edges")
	}
}

func TestSchemeStringAndEmptyThroughput(t *testing.T) {
	solo := NewScheme(platform.MustInstance(3, nil, nil))
	if thr := solo.Throughput(); thr != 0 {
		t.Fatalf("no-receiver throughput %v", thr)
	}
	if s := solo.String(); !strings.Contains(s, "Scheme{") {
		t.Fatalf("String: %q", s)
	}
}

// TestSchemeCompact: compaction keeps every edge and rate bit, leaves no
// slack in any adjacency, and a later Add on one node cannot write into
// the next node's arcs in the shared slab.
func TestSchemeCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		open := make([]float64, 5+rng.Intn(20))
		for i := range open {
			open[i] = 1 + 99*rng.Float64()
		}
		guarded := make([]float64, rng.Intn(20))
		for i := range guarded {
			guarded[i] = 1 + 99*rng.Float64()
		}
		ins := platform.MustInstance(100, open, guarded)
		_, s, _, err := SolveAcyclicWordWithWorkspace(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := s.Edges()
		s.Compact()
		after := s.Edges()
		if len(after) != len(before) {
			t.Fatalf("trial %d: %d edges after Compact, %d before", trial, len(after), len(before))
		}
		for k := range before {
			a, b := after[k], before[k]
			if a.From != b.From || a.To != b.To || math.Float64bits(a.Weight) != math.Float64bits(b.Weight) {
				t.Fatalf("trial %d: edge %d moved: %+v -> %+v", trial, k, b, a)
			}
		}
		for i := range s.out {
			if cap(s.out[i]) != len(s.out[i]) {
				t.Fatalf("trial %d: node %d keeps %d slack slots", trial, i, cap(s.out[i])-len(s.out[i]))
			}
		}
		// Grow the first sender that has a successor sender in the slab.
		for i := 0; i+1 < len(s.out); i++ {
			if len(s.out[i]) == 0 || len(s.out[i+1]) == 0 {
				continue
			}
			next := append(adjacency(nil), s.out[i+1]...)
			for j := 0; j < ins.Total(); j++ {
				if j != i && s.Rate(i, j) == 0 {
					s.Add(i, j, 1)
					break
				}
			}
			for k, e := range s.out[i+1] {
				if e != next[k] {
					t.Fatalf("trial %d: Add on node %d overwrote node %d arc %d", trial, i, i+1, k)
				}
			}
			break
		}
	}
}
