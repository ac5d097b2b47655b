package trees

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

func solveFigure1(t *testing.T) (*core.Scheme, float64) {
	t.Helper()
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	T, s, _, err := core.SolveAcyclicWordWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, T
}

func TestDecomposeFigure1(t *testing.T) {
	s, T := solveFigure1(t)
	ts, err := Decompose(s, T)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 {
		t.Fatal("no trees")
	}
	if err := Verify(s, T, ts); err != nil {
		t.Fatal(err)
	}
	// A scheme of E edges yields at most E trees.
	if len(ts) > s.NumEdges() {
		t.Fatalf("%d trees from %d edges", len(ts), s.NumEdges())
	}
}

func TestDecomposeRandomAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		nn := rng.Intn(8)
		mm := rng.Intn(8)
		if nn+mm == 0 {
			nn = 2
		}
		open := make([]float64, nn)
		for i := range open {
			open[i] = 1 + 20*rng.Float64()
		}
		guarded := make([]float64, mm)
		for i := range guarded {
			guarded[i] = 1 + 20*rng.Float64()
		}
		ins := platform.MustInstance(5+20*rng.Float64(), open, guarded)
		T, s, _, err := core.SolveAcyclicWordWithWorkspace(ins, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if T <= 0 {
			continue
		}
		ts, err := Decompose(s, T)
		if err != nil {
			t.Fatalf("trial %d (%v, T=%v): %v", trial, ins, T, err)
		}
		if err := Verify(s, T, ts); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDecomposePartialTarget(t *testing.T) {
	// Decomposing at half the throughput must also work (slack edges).
	s, T := solveFigure1(t)
	ts, err := Decompose(s, T/2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s, T/2, ts); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeRejectsCyclic(t *testing.T) {
	ins := platform.MustInstance(5, []float64{5, 3, 2}, nil)
	_, s, err := core.SolveCyclicOpenWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.IsAcyclic() {
		t.Skip("instance unexpectedly produced an acyclic scheme")
	}
	if _, err := Decompose(s, 5); err == nil {
		t.Fatal("expected rejection of cyclic scheme")
	}
}

func TestDecomposeRejectsShortInRate(t *testing.T) {
	ins := platform.MustInstance(4, []float64{2, 1}, nil)
	s := core.NewScheme(ins)
	s.Add(0, 1, 1)
	s.Add(1, 2, 0.5)
	if _, err := Decompose(s, 1); err == nil {
		t.Fatal("expected error: node 2 receives only 0.5 < 1")
	}
	if _, err := Decompose(s, 0); err == nil {
		t.Fatal("expected error for T = 0")
	}
}

func TestTreeDepth(t *testing.T) {
	// Chain 0→1→2→3: depth 3. Star: depth 1.
	chain := Tree{Weight: 1, Parent: []int{-1, 0, 1, 2}}
	if d := chain.Depth(); d != 3 {
		t.Fatalf("chain depth %d, want 3", d)
	}
	star := Tree{Weight: 1, Parent: []int{-1, 0, 0, 0}}
	if d := star.Depth(); d != 1 {
		t.Fatalf("star depth %d, want 1", d)
	}
}

func TestVerifyCatchesBadDecompositions(t *testing.T) {
	s, T := solveFigure1(t)
	ts, err := Decompose(s, T)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong total weight.
	bad := append([]Tree(nil), ts...)
	bad[0].Weight *= 2
	if err := Verify(s, T, bad); err == nil {
		t.Error("Verify accepted inflated weights")
	}
	// Orphaned node (cycle between 1 and 2).
	orphan := Tree{Weight: T, Parent: make([]int, s.Instance().Total())}
	orphan.Parent[0] = -1
	for v := 1; v < len(orphan.Parent); v++ {
		orphan.Parent[v] = v%2 + 1 // 1→2→1 cycle, never reaching 0
	}
	if err := Verify(s, T, []Tree{orphan}); err == nil {
		t.Error("Verify accepted a non-arborescence")
	}
}
