package core

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// TestPackCyclicGuardedFigure1: the packer must reach T* = 4.4 on the
// running example (where T*_ac is only 4), and max-flow must certify it.
func TestPackCyclicGuardedFigure1(t *testing.T) {
	ins := figure1()
	s, packed, err := PackCyclicGuardedWithWorkspace(ins, 4.4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if packed < 4.4*(1-1e-9) {
		t.Fatalf("packed %v < T* = 4.4", packed)
	}
	if thr := s.Throughput(); thr < packed*(1-1e-6) {
		t.Fatalf("max-flow %v below certified %v", thr, packed)
	}
	if s.IsAcyclic() {
		t.Fatal("reaching 4.4 > T*_ac = 4 requires a cyclic scheme")
	}
}

// TestPackCyclicGuardedFigure6: on the unbounded-degree witness the
// packer reaches T* = 1 and, as Section V predicts, the source's
// outdegree grows to m (⌈b0/T*⌉ = 1).
func TestPackCyclicGuardedFigure6(t *testing.T) {
	for _, m := range []int{3, 5, 8} {
		guarded := make([]float64, m)
		for i := range guarded {
			guarded[i] = 1 / float64(m)
		}
		ins := platform.MustInstance(1, []float64{float64(m - 1)}, guarded)
		s, packed, err := PackCyclicGuardedWithWorkspace(ins, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if packed < 1-1e-9 {
			t.Fatalf("m=%d: packed %v < 1", m, packed)
		}
		if thr := s.Throughput(); thr < packed*(1-1e-6) {
			t.Fatalf("m=%d: max-flow %v below certified %v", m, thr, packed)
		}
		if deg := s.OutDegree(0); deg < m {
			t.Fatalf("m=%d: source degree %d; Section V proves it must reach m", m, deg)
		}
	}
}

// TestPackCyclicGuardedRandom: across random mixed instances the packer
// certifies ≥ (1 − 1e-6)·T* — the closed form of Lemma 5.1 is achieved,
// constructively, in the fourth quadrant.
func TestPackCyclicGuardedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 120; trial++ {
		nn := rng.Intn(8)
		mm := rng.Intn(8)
		if nn+mm == 0 {
			mm = 2
		}
		ins := randomMixedInstance(rng, nn, mm)
		tstar := OptimalCyclicThroughput(ins)
		if tstar <= 0 {
			continue
		}
		s, packed, err := PackCyclicGuardedWithWorkspace(ins, tstar, nil)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, ins, err)
		}
		if packed < tstar*(1-1e-6) {
			t.Fatalf("trial %d (%v): packed %v < T* %v (gap %.2e)",
				trial, ins, packed, tstar, 1-packed/tstar)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestPackCyclicGuardedMaxflowSpotCheck: certify a sample of packed
// schemes through the (expensive) exact max-flow verifier.
func TestPackCyclicGuardedMaxflowSpotCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 15; trial++ {
		ins := randomMixedInstance(rng, 1+rng.Intn(5), 1+rng.Intn(5))
		tstar := OptimalCyclicThroughput(ins)
		s, packed, err := PackCyclicGuardedWithWorkspace(ins, tstar, nil)
		if err != nil {
			t.Fatal(err)
		}
		if thr := s.Throughput(); thr < packed*(1-1e-6) {
			t.Fatalf("trial %d (%v): max-flow %v < certified %v", trial, ins, thr, packed)
		}
	}
}

// TestPackCyclicGuardedTightHomogeneous: the Figure 7 family (where
// acyclic solutions lose up to 2/7 of the throughput) is fully recovered
// by the cyclic packer.
func TestPackCyclicGuardedTightHomogeneous(t *testing.T) {
	for _, c := range []struct{ n, m int }{{1, 2}, {3, 2}, {5, 5}, {10, 4}} {
		for _, frac := range []float64{0, 0.5, 1} {
			ins, err := TightHomogeneousForTest(c.n, c.m, frac*float64(c.n))
			if err != nil {
				t.Fatal(err)
			}
			_, packed, err := PackCyclicGuardedWithWorkspace(ins, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if packed < 1-1e-6 {
				t.Fatalf("n=%d m=%d Δ=%v: packed %v < 1", c.n, c.m, frac*float64(c.n), packed)
			}
		}
	}
}

// TightHomogeneousForTest mirrors generator.TightHomogeneous without the
// import (kept local to avoid widening the core test dependencies).
func TightHomogeneousForTest(n, m int, delta float64) (*platform.Instance, error) {
	o := (float64(m-1) + delta) / float64(n)
	g := (float64(n) - delta) / float64(m)
	open := make([]float64, n)
	for i := range open {
		open[i] = o
	}
	guarded := make([]float64, m)
	for i := range guarded {
		guarded[i] = g
	}
	return platform.NewInstance(1, open, guarded)
}

func TestPackCyclicGuardedRejects(t *testing.T) {
	ins := figure1()
	if _, _, err := PackCyclicGuardedWithWorkspace(ins, 0, nil); err == nil {
		t.Error("expected error for T=0")
	}
	if _, _, err := PackCyclicGuardedWithWorkspace(ins, 100, nil); err == nil {
		t.Error("expected error above T*")
	}
}
