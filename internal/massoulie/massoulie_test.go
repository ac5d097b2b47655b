package massoulie

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

func TestSimulateSingleEdge(t *testing.T) {
	ins := platform.MustInstance(2, []float64{1}, nil)
	s := core.NewScheme(ins)
	s.Add(0, 1, 2)
	res, err := Simulate(s, 2, Config{Packets: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %v", res)
	}
	if g := res.Goodput[1]; g < 0.9 {
		t.Fatalf("goodput %v, want ≈1 (in units of T)", g)
	}
}

func TestSimulateFigure1Acyclic(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	T, s, _, err := core.SolveAcyclicWordWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(s, T, Config{Packets: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("dissemination incomplete: %v", res)
	}
	if mg := res.MinGoodput(); mg < 0.85 {
		t.Fatalf("min goodput %v, want ≥ 0.85 of T (random-useful-packet is throughput-optimal on this overlay)", mg)
	}
}

func TestSimulateCyclicOverlay(t *testing.T) {
	ins := platform.MustInstance(5, []float64{5, 4, 4, 4, 3}, nil)
	T, s, err := core.SolveCyclicOpenWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(s, T, Config{Packets: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("dissemination incomplete: %v", res)
	}
	if mg := res.MinGoodput(); mg < 0.8 {
		t.Fatalf("min goodput %v on cyclic overlay, want ≥ 0.8", mg)
	}
}

func TestSimulateRandomOverlays(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		nn := 2 + rng.Intn(6)
		mm := rng.Intn(6)
		open := make([]float64, nn)
		for i := range open {
			open[i] = 1 + 10*rng.Float64()
		}
		guarded := make([]float64, mm)
		for i := range guarded {
			guarded[i] = 1 + 10*rng.Float64()
		}
		ins := platform.MustInstance(5+10*rng.Float64(), open, guarded)
		T, s, _, err := core.SolveAcyclicWordWithWorkspace(ins, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := Simulate(s, T, Config{Packets: 150, Seed: int64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Completed {
			t.Fatalf("trial %d incomplete: %v (instance %v)", trial, res, ins)
		}
		if mg := res.MinGoodput(); mg < 0.75 {
			t.Fatalf("trial %d: min goodput %v (instance %v)", trial, mg, ins)
		}
	}
}

func TestSimulateDeterministicPerSeed(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	T, s, _, err := core.SolveAcyclicWordWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Simulate(s, T, Config{Packets: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(s, T, Config{Packets: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.MinGoodput() != b.MinGoodput() {
		t.Fatal("same seed produced different runs")
	}
}

func TestSimulateValidation(t *testing.T) {
	ins := platform.MustInstance(2, []float64{1}, nil)
	s := core.NewScheme(ins)
	s.Add(0, 1, 1)
	if _, err := Simulate(s, 0, Config{Packets: 10}); err == nil {
		t.Error("expected error for T = 0")
	}
	if _, err := Simulate(s, 1, Config{Packets: 0}); err == nil {
		t.Error("expected error for zero packets")
	}
	empty := core.NewScheme(platform.MustInstance(1, nil, nil))
	if _, err := Simulate(empty, 1, Config{Packets: 1}); err == nil {
		t.Error("expected error with no receivers")
	}
}

func TestSimulateStarvedOverlayDoesNotComplete(t *testing.T) {
	// Failure injection: an overlay whose capacity to node 2 is half of
	// T must miss the deadline and report Completed = false.
	ins := platform.MustInstance(2, []float64{1, 1}, nil)
	s := core.NewScheme(ins)
	s.Add(0, 1, 1)
	s.Add(0, 2, 0.5) // starved edge
	res, err := Simulate(s, 1, Config{Packets: 100, MaxRounds: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("starved overlay completed in nominal time")
	}
	if g := res.Goodput[2]; g > 0.7 {
		t.Fatalf("starved node goodput %v, want ≈0.5", g)
	}
}

func TestDelayBoundedByDepth(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	T, s, _, err := core.SolveAcyclicWordWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(s, T, Config{Packets: 200, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Delays stay modest: bounded by a small multiple of depth plus the
	// catch-up skew; this is a sanity check, not a tight bound.
	depth := s.Graph().Depth(0)
	for v, d := range res.Delay {
		if d > 30*(depth+1) {
			t.Fatalf("node %d delay %d rounds with depth %d", v, d, depth)
		}
	}
}
