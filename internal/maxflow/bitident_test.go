package maxflow_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/maxflow"
	"repro/internal/platform"
)

// These tests pin the backward-layered kernel to the forward-layered
// reference in reference_test.go bit for bit: the throughput functional
// feeds the served "verified" field, so equality up to tolerance is not
// enough.

// schemeNetwork builds the flow network of a scheme in the arc order
// core.Scheme.ThroughputCappedWithWorkspace uses.
func schemeNetwork(s *core.Scheme) *maxflow.Network {
	g := maxflow.NewNetwork(s.Instance().Total())
	for _, e := range s.Edges() {
		g.AddEdge(e.From, e.To, e.Weight)
	}
	return g
}

// sameBits fails unless got and want are the same float64 bit pattern.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: kernel %v (bits %x), reference %v (bits %x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkAgainstReference compares MinFromSourceCapped at caps +Inf, the
// true minimum T and T·(1+1e-9), then one Max per target, against the
// reference kernel on an identical copy of g.
func checkAgainstReference(t *testing.T, what string, ws *maxflow.Workspace, g *maxflow.Network, s int, targets []int) {
	t.Helper()
	ref := g.Clone()
	T := maxflow.RefMinFromSourceCapped(ref, s, targets, math.Inf(1))
	for _, c := range []float64{math.Inf(1), T, T * (1 + 1e-9)} {
		sameBits(t, what+" min", ws.MinFromSourceCapped(g, s, targets, c), maxflow.RefMinFromSourceCapped(ref, s, targets, c))
	}
	for _, tt := range targets {
		sameBits(t, what+" max", g.Clone().Max(s, tt), maxflow.RefMax(ref.Clone(), s, tt))
	}
}

func receivers(n int) []int {
	ts := make([]int, n-1)
	for i := range ts {
		ts[i] = i + 1
	}
	return ts
}

// TestKernelMatchesReferenceOnSolverSchemes runs every registered
// solver on seeded instances (acyclic and cyclic schemes alike) and
// checks the verify kernel against the reference on each scheme.
func TestKernelMatchesReferenceOnSolverSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(20240613))
	dists := distribution.All()
	var mixed, openOnly, small []*platform.Instance
	for i := 0; i < 12; i++ {
		dist := dists[i%len(dists)]
		draw := func(n int, pOpen float64) *platform.Instance {
			ins, err := generator.Random(dist, n, pOpen, rng)
			if err != nil {
				t.Fatal(err)
			}
			return ins
		}
		mixed = append(mixed, draw(8+rng.Intn(120), 0.1+0.8*rng.Float64()))
		openOnly = append(openOnly, draw(8+rng.Intn(120), 1))
		small = append(small, draw(4+rng.Intn(5), 0.1+0.8*rng.Float64()))
	}
	ws := maxflow.NewWorkspace()
	ctx := context.Background()
	schemes := 0
	for _, name := range engine.Names() {
		s, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		instances := mixed
		switch name {
		case "acyclic-open", "cyclic-open", "oneport":
			instances = openOnly
		case "exhaustive":
			instances = small
		}
		for _, ins := range instances {
			res, err := s.Solve(ctx, ins)
			if err != nil || res.Scheme == nil {
				continue
			}
			schemes++
			checkAgainstReference(t, name, ws, schemeNetwork(res.Scheme), 0, receivers(ins.Total()))
		}
	}
	if schemes < 50 {
		t.Fatalf("only %d schemes checked", schemes)
	}
}

// TestKernelMatchesReferenceOnLargeScheme covers the n=1k regime the
// batch workloads verify, where bounded queries stop after a handful of
// augmentations.
func TestKernelMatchesReferenceOnLargeScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("large scheme")
	}
	ins, err := generator.LargeScale(generator.LargeScaleConfig{Nodes: 1000, POpen: 0.6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, s, _, err := core.SolveAcyclicWordWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := schemeNetwork(s)
	ref := g.Clone()
	targets := receivers(ins.Total())
	ws := maxflow.NewWorkspace()
	T := maxflow.RefMinFromSourceCapped(ref, 0, targets, math.Inf(1))
	for _, c := range []float64{math.Inf(1), T, T * (1 + 1e-9)} {
		sameBits(t, "n=1k min", ws.MinFromSourceCapped(g, 0, targets, c), maxflow.RefMinFromSourceCapped(ref, 0, targets, c))
	}
}

// randomDigraph draws a seeded digraph with cycles and non-dyadic
// capacities, so float rounding order matters.
func randomDigraph(rng *rand.Rand, n int, p float64) *maxflow.Network {
	g := maxflow.NewNetwork(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				g.AddEdge(i, j, rng.ExpFloat64()*10/3)
			}
		}
	}
	return g
}

func TestKernelMatchesReferenceOnRandomDigraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ws := maxflow.NewWorkspace()
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(60)
		g := randomDigraph(rng, n, 0.05+0.4*rng.Float64())
		s := rng.Intn(n)
		targets := make([]int, 0, n)
		for v := 0; v < n; v++ { // s included: it must be skipped
			targets = append(targets, v)
		}
		rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		checkAgainstReference(t, "digraph", ws, g, s, targets)
	}
}

// TestKernelMatchesReferenceAcrossEpochWrap forces the phase stamp to
// wrap mid-evaluation: stale stamps from before the wrap must not be
// mistaken for current labels.
func TestKernelMatchesReferenceAcrossEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(40)
		g := randomDigraph(rng, n, 0.2)
		targets := receivers(n)
		// Leave unrelated labels behind at the lowest stamps (another
		// graph, another source, one target: a few phases), then jump to
		// just below the wrap so the evaluation reuses those stamps.
		ws := maxflow.NewWorkspace()
		ws.MinFromSource(randomDigraph(rng, n, 0.3), n-1, []int{0})
		maxflow.SetEpochForTest(ws, math.MaxUint32-uint32(rng.Intn(3)))
		checkAgainstReference(t, "wrap", ws, g, 0, targets)
	}
}
