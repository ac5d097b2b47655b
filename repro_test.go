package repro_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/engine"
)

// TestFacadeEndToEnd drives the complete public API surface on the
// Figure 1 instance: bounds, search, construction, validation, tree
// decomposition and streaming simulation.
func TestFacadeEndToEnd(t *testing.T) {
	ins := repro.Figure1Instance()
	if got := repro.OptimalCyclicThroughput(ins); math.Abs(got-4.4) > 1e-9 {
		t.Fatalf("T* = %v, want 4.4", got)
	}
	T, word, err := repro.OptimalAcyclicThroughput(ins)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(T-4) > 1e-9 {
		t.Fatalf("T*_ac = %v, want 4", T)
	}
	if !repro.FeasibleAcyclic(ins, 4) || repro.FeasibleAcyclic(ins, 4.01) {
		t.Fatal("FeasibleAcyclic boundary wrong")
	}
	scheme, err := repro.BuildScheme(ins, word, T)
	if err != nil {
		t.Fatal(err)
	}
	if err := scheme.Validate(); err != nil {
		t.Fatal(err)
	}
	// Max-flow verification uses an Eps-guarded Dinic, so allow float
	// slack proportional to the path count.
	if thr := scheme.Throughput(); math.Abs(thr-4) > 1e-6 {
		t.Fatalf("scheme throughput %v", thr)
	}
	ts, err := repro.DecomposeTrees(scheme, T)
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.VerifyTrees(scheme, T, ts); err != nil {
		t.Fatal(err)
	}
	res, err := repro.Simulate(scheme, T, repro.SimConfig{Packets: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("simulation incomplete: %v", res)
	}
}

// TestFacadeExactRefinement: the exact variant returns exactly 4 on the
// Figure 1 instance.
func TestFacadeExactRefinement(t *testing.T) {
	exact, _, err := repro.OptimalAcyclicThroughputExact(repro.Figure1Instance())
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := exact.Float64(); f != 4 {
		t.Fatalf("exact T*_ac = %v, want 4", exact)
	}
}

// TestFacadeWords: ParseWord, Omega constructors, WordThroughput.
func TestFacadeWords(t *testing.T) {
	ins := repro.Figure1Instance()
	w, err := repro.ParseWord("gogog")
	if err != nil {
		t.Fatal(err)
	}
	if tw := repro.WordThroughput(ins, w); tw <= 0 || tw > 4+1e-9 {
		t.Fatalf("word throughput %v outside (0, 4]", tw)
	}
	w1, err := repro.Omega1(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := repro.Omega2(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w1.CountOpen() != 2 || w1.CountGuarded() != 3 || w2.CountOpen() != 2 || w2.CountGuarded() != 3 {
		t.Fatal("omega letter counts wrong")
	}
	best, _, err := repro.BestCanonicalThroughput(ins)
	if err != nil {
		t.Fatal(err)
	}
	if best <= 0 || best > 4+1e-9 {
		t.Fatalf("best canonical %v", best)
	}
}

// TestFacadeCyclicOpen: end-to-end cyclic pipeline on an open platform.
func TestFacadeCyclicOpen(t *testing.T) {
	ins := repro.MustInstance(5, []float64{5, 4, 4, 4, 3}, nil)
	T, s, err := repro.SolveCyclicOpen(ins)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(T-5) > 1e-9 {
		t.Fatalf("T = %v", T)
	}
	if thr := s.Throughput(); math.Abs(thr-5) > 1e-9 {
		t.Fatalf("throughput %v", thr)
	}
	a, err := repro.AcyclicOpen(ins, repro.AcyclicOpenOptimalThroughput(ins))
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsAcyclic() {
		t.Fatal("Algorithm 1 scheme not acyclic")
	}
}

// TestFacadePooledCallsReturnWorkspaces: the facade calls that borrow
// from the engine's workspace pool give the lease back, so
// engine.LeasedWorkspaces returns to its baseline after each.
func TestFacadePooledCallsReturnWorkspaces(t *testing.T) {
	base := engine.LeasedWorkspaces()
	ins := repro.Figure1Instance()
	calls := []struct {
		name string
		call func() error
	}{
		{"SolveAcyclic", func() error { _, _, err := repro.SolveAcyclic(ins); return err }},
		{"OptimalAcyclicThroughput", func() error { _, _, err := repro.OptimalAcyclicThroughput(ins); return err }},
		{"FeasibleAcyclic", func() error { repro.FeasibleAcyclic(ins, 4); return nil }},
		{"RepairAcyclic", func() error { _, err := repro.RepairAcyclic(ins, repro.Word{}); return err }},
		{"RepairAcyclic/warm", func() error {
			_, w, err := repro.OptimalAcyclicThroughput(ins)
			if err != nil {
				return err
			}
			_, err = repro.RepairAcyclic(repro.MustInstance(6, []float64{5, 5, 2}, []float64{4, 1}), w)
			return err
		}},
	}
	for _, c := range calls {
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := engine.LeasedWorkspaces(); got != base {
			t.Fatalf("%s: %d workspaces leased after the call, want %d", c.name, got, base)
		}
	}
}

// TestFacadeGenerators: random tight instances through the facade.
func TestFacadeGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dist := range []repro.Distribution{repro.Unif100(), repro.Power1(), repro.LN2(), repro.PlanetLab()} {
		ins, err := repro.RandomInstance(dist, 30, 0.6, rng)
		if err != nil {
			t.Fatal(err)
		}
		tstar := repro.OptimalCyclicThroughput(ins)
		if math.Abs(tstar-ins.B0) > 1e-9*(1+tstar) {
			t.Fatalf("%s: instance not tight: T*=%v, b0=%v", dist.Name(), tstar, ins.B0)
		}
	}
	th, err := repro.TightHomogeneous(5, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := repro.OptimalCyclicThroughput(th); math.Abs(got-1) > 1e-9 {
		t.Fatalf("tight homogeneous T* = %v", got)
	}
}

// TestFacadeWorstCaseRatioConstant pins the exported constant.
func TestFacadeWorstCaseRatioConstant(t *testing.T) {
	if math.Abs(repro.WorstCaseRatio-5.0/7.0) > 1e-15 {
		t.Fatalf("WorstCaseRatio = %v", repro.WorstCaseRatio)
	}
}

// TestFacadeEngine exercises the re-exported solver engine: registry
// dispatch, capability filtering and the parallel batch runner.
func TestFacadeEngine(t *testing.T) {
	ctx := context.Background()
	ins := repro.Figure1Instance()

	if len(repro.SolverNames()) < 10 {
		t.Fatalf("SolverNames() = %v", repro.SolverNames())
	}
	res, err := repro.Solve(ctx, "acyclic", ins)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-4) > 1e-6 || res.Scheme == nil {
		t.Fatalf("acyclic result: %+v", res)
	}
	for _, s := range repro.SelectSolvers(repro.CapExact | repro.CapBuildsScheme | repro.CapHandlesGuarded) {
		r, err := s.Solve(ctx, ins)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := r.Scheme.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}

	rng := rand.New(rand.NewSource(6))
	instances := make([]*repro.Instance, 50)
	for i := range instances {
		var err error
		instances[i], err = repro.RandomInstance(repro.Unif100(), 10, 0.7, rng)
		if err != nil {
			t.Fatal(err)
		}
	}
	results, err := repro.SolveBatch(ctx, "acyclic-search", instances, repro.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		want, _, err := repro.OptimalAcyclicThroughput(instances[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput != want {
			t.Fatalf("batch result %d: %v != serial %v", i, r.Throughput, want)
		}
	}
}

// TestFacadeRequestPlan drives the v2 Request/Plan API through the
// facade: typed requests, typed sentinel errors, artifacts and the
// distribution lookup the CLIs share.
func TestFacadeRequestPlan(t *testing.T) {
	ctx := context.Background()
	ins := repro.Figure1Instance()

	plan, err := repro.Execute(ctx, repro.NewRequest(ins,
		repro.WithSolver("acyclic"),
		repro.WithTolerance(1e-9),
		repro.WithSchedule(20),
	))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.TStar-4.4) > 1e-9 || math.Abs(plan.Throughput-4) > 1e-6 {
		t.Fatalf("plan T = %v, T* = %v", plan.Throughput, plan.TStar)
	}
	if plan.Scheme == nil || len(plan.Trees) == 0 || plan.Schedule == nil || plan.Verified == 0 {
		t.Fatalf("plan missing artifacts: %+v", plan)
	}

	// Capability-selected request (no solver name).
	sel, err := repro.Execute(ctx, repro.NewRequest(ins,
		repro.WithCapabilities(repro.CapExact|repro.CapHandlesGuarded), repro.WithScheme()))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Scheme == nil {
		t.Fatal("capability-selected plan has no scheme")
	}

	// Typed sentinel errors via errors.Is.
	if _, err := repro.Execute(ctx, repro.NewRequest(ins, repro.WithSolver("nope"))); !errors.Is(err, repro.ErrUnknownSolver) {
		t.Fatalf("err = %v, want ErrUnknownSolver", err)
	}
	if _, err := repro.Execute(ctx, repro.NewRequest(ins, repro.WithSolver("cyclic-bound"), repro.WithTrees())); !errors.Is(err, repro.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := repro.Execute(canceled, repro.NewRequest(ins)); !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if _, err := repro.ParseWord("oxg"); !errors.Is(err, repro.ErrInvalidWord) {
		t.Fatalf("err = %v, want ErrInvalidWord", err)
	}
	if _, err := repro.NewInstance(-1, nil, nil); !errors.Is(err, repro.ErrInvalidInstance) {
		t.Fatalf("err = %v, want ErrInvalidInstance", err)
	}

	// Batch of requests with deterministic ordering.
	reqs := make([]repro.Request, 8)
	for i := range reqs {
		reqs[i] = repro.NewRequest(ins, repro.WithSolver("acyclic-search"))
	}
	plans, err := repro.ExecuteBatch(ctx, reqs, repro.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if p == nil || math.Abs(p.Throughput-plans[0].Throughput) > 1e-12 {
			t.Fatalf("batch plan %d inconsistent", i)
		}
	}

	// DistributionByName mirrors the CLI lookups.
	for _, name := range []string{"Unif100", "Power1", "Power2", "LN1", "LN2", "PLab"} {
		d, err := repro.DistributionByName(name)
		if err != nil || d.Name() != name {
			t.Fatalf("DistributionByName(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := repro.DistributionByName("Gaussian"); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

func TestFacadePlanCache(t *testing.T) {
	ctx := context.Background()
	ins := repro.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	cache := repro.NewPlanCache(16)
	req := repro.NewRequest(ins, repro.WithSolver("acyclic"), repro.WithCache(cache))

	first, err := repro.Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := repro.Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("identical cached requests returned distinct plans")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	// A different request is its own entry.
	other := repro.NewRequest(ins, repro.WithSolver("greedy"), repro.WithCache(cache))
	if _, err := repro.Execute(ctx, other); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}
