package core

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// randomOpenInstance draws an open-only instance with n nodes and
// bandwidths in (0, 100].
func randomOpenInstance(rng *rand.Rand, n int) *platform.Instance {
	open := make([]float64, n)
	for i := range open {
		open[i] = 100 * (1 - rng.Float64())
	}
	return platform.MustInstance(100*(1-rng.Float64()), open, nil)
}

// TestAcyclicOpenOptimality: Algorithm 1 at T = min(b0, S_{n-1}/n)
// produces a valid acyclic scheme whose max-flow throughput matches T and
// whose degrees stay within ⌈b_i/T⌉ + 1.
func TestAcyclicOpenOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		ins := randomOpenInstance(rng, n)
		T := AcyclicOpenOptimalThroughput(ins)
		s, err := AcyclicOpen(ins, T)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, ins, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !s.IsAcyclic() {
			t.Fatalf("trial %d: scheme has a cycle", trial)
		}
		if thr := s.Throughput(); !almostEq(thr, T) {
			t.Fatalf("trial %d: throughput %v, want %v", trial, thr, T)
		}
		for i := 0; i <= n; i++ {
			if deg := s.OutDegree(i); deg > DegreeLowerBound(ins.Bandwidth(i), T)+1 {
				t.Fatalf("trial %d: node %d degree %d > ⌈b/T⌉+1 = %d",
					trial, i, deg, DegreeLowerBound(ins.Bandwidth(i), T)+1)
			}
		}
	}
}

// TestAcyclicOpenBelowOptimal: any T below the optimum must also work.
func TestAcyclicOpenBelowOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		ins := randomOpenInstance(rng, n)
		T := AcyclicOpenOptimalThroughput(ins) * (0.1 + 0.9*rng.Float64())
		if T <= 0 {
			continue
		}
		s, err := AcyclicOpen(ins, T)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if thr := s.Throughput(); thr < T-1e-9*(1+T) {
			t.Fatalf("trial %d: throughput %v < requested %v", trial, thr, T)
		}
	}
}

// TestAcyclicOpenRejectsAboveOptimal: T above the bound must be refused.
func TestAcyclicOpenRejectsAboveOptimal(t *testing.T) {
	ins := platform.MustInstance(10, []float64{4, 2, 1}, nil)
	opt := AcyclicOpenOptimalThroughput(ins) // min(10, (10+4+2)/3) = 16/3
	if !almostEq(opt, 16.0/3) {
		t.Fatalf("optimum = %v, want 16/3", opt)
	}
	if _, err := AcyclicOpen(ins, opt*1.01); err == nil {
		t.Fatal("expected error above the optimum")
	}
	if _, err := AcyclicOpen(ins, 0); err == nil {
		t.Fatal("expected error for T = 0")
	}
}

// TestAcyclicOpenGuardedRejected: Algorithm 1 is open-only.
func TestAcyclicOpenGuardedRejected(t *testing.T) {
	ins := platform.MustInstance(4, []float64{2}, []float64{1})
	if _, err := AcyclicOpen(ins, 1); err == nil {
		t.Fatal("expected error on guarded instance")
	}
}

// TestAcyclicOpenMatchesGeneralSearch: on open-only instances, the
// general dichotomic search must agree with the closed formula.
func TestAcyclicOpenMatchesGeneralSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		ins := randomOpenInstance(rng, n)
		want := AcyclicOpenOptimalThroughput(ins)
		got, _, err := OptimalAcyclicThroughputWithWorkspace(ins, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !almostEq(got, want) {
			t.Fatalf("trial %d (%v): search %v, formula %v", trial, ins, got, want)
		}
	}
}

// TestFirstShortIndex pins the i0 detection used by Theorem 5.2's proof:
// the Figure 11 instance (b = 5,5,3,2 at T=5) has i0 = 3 and the Figure
// 14 instance (b = 5,5,4,4,4,3 at T=5) has i0 = 3 as well.
func TestFirstShortIndex(t *testing.T) {
	fig11 := platform.MustInstance(5, []float64{5, 3, 2}, nil)
	if i0 := firstShortIndex(fig11, 5); i0 != 3 {
		t.Fatalf("Figure 11 instance: i0 = %d, want 3", i0)
	}
	fig14 := platform.MustInstance(5, []float64{5, 4, 4, 4, 3}, nil)
	if i0 := firstShortIndex(fig14, 5); i0 != 3 {
		t.Fatalf("Figure 14 instance: i0 = %d, want 3", i0)
	}
	// No short index when T is low enough for Algorithm 1 alone.
	if i0 := firstShortIndex(fig14, 4); i0 != 0 {
		t.Fatalf("Figure 14 instance at T=4: i0 = %d, want 0", i0)
	}
}
