package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/generator"
	"repro/internal/platform"
)

// equivalenceInstances draws the seeded instance set of the pooled-path
// property test: 200 random tight instances, plus a same-seed open-only
// and small (exhaustive-sized) variant of each for the solvers with
// restricted domains.
const equivalenceSeed = 2026

func equivalenceInstances(t *testing.T) (mixed, openOnly, small []*platform.Instance) {
	t.Helper()
	rng := rand.New(rand.NewSource(equivalenceSeed))
	dists := distribution.All()
	for i := 0; i < 200; i++ {
		dist := dists[i%len(dists)]
		m, err := generator.Random(dist, 6+rng.Intn(10), 0.1+0.8*rng.Float64(), rng)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		mixed = append(mixed, m)
		o, err := generator.Random(dist, 6+rng.Intn(10), 1.0, rng)
		if err != nil {
			t.Fatalf("open instance %d: %v", i, err)
		}
		openOnly = append(openOnly, o)
		s, err := generator.Random(dist, 4+rng.Intn(5), 0.1+0.8*rng.Float64(), rng)
		if err != nil {
			t.Fatalf("small instance %d: %v", i, err)
		}
		small = append(small, s)
	}
	return mixed, openOnly, small
}

// sameResult fails the test unless a and b are byte-identical on every
// deterministic field (throughput bits, word, scheme edge list, degree
// statistics).
func sameResult(t *testing.T, i int, a, b Result) {
	t.Helper()
	if math.Float64bits(a.Throughput) != math.Float64bits(b.Throughput) {
		t.Fatalf("instance %d: pooled throughput %v (bits %x) != fresh %v (bits %x)",
			i, a.Throughput, math.Float64bits(a.Throughput), b.Throughput, math.Float64bits(b.Throughput))
	}
	if a.Word.String() != b.Word.String() {
		t.Fatalf("instance %d: pooled word %s != fresh %s", i, a.Word, b.Word)
	}
	if (a.Scheme == nil) != (b.Scheme == nil) {
		t.Fatalf("instance %d: pooled scheme nil=%v, fresh nil=%v", i, a.Scheme == nil, b.Scheme == nil)
	}
	if a.MaxOutDegree != b.MaxOutDegree || a.MaxDegreeSlack != b.MaxDegreeSlack || a.Edges != b.Edges {
		t.Fatalf("instance %d: degree stats diverge: pooled (%d,%d,%d) fresh (%d,%d,%d)",
			i, a.MaxOutDegree, a.MaxDegreeSlack, a.Edges, b.MaxOutDegree, b.MaxDegreeSlack, b.Edges)
	}
	if a.Scheme == nil {
		return
	}
	ae, be := a.Scheme.Edges(), b.Scheme.Edges()
	if len(ae) != len(be) {
		t.Fatalf("instance %d: pooled %d edges, fresh %d", i, len(ae), len(be))
	}
	for k := range ae {
		if ae[k].From != be[k].From || ae[k].To != be[k].To ||
			math.Float64bits(ae[k].Weight) != math.Float64bits(be[k].Weight) {
			t.Fatalf("instance %d edge %d: pooled %+v != fresh %+v", i, k, ae[k], be[k])
		}
	}
}

// TestPooledSolvesMatchFreshWorkspace is the workspace-reuse property
// test: for every registered solver, solving 200 seeded random
// instances through the engine's pooled workspaces produces results
// byte-identical to solving on a fresh workspace per call. Solver
// subtests run in parallel, so under -race this also exercises
// concurrent pool handout.
func TestPooledSolvesMatchFreshWorkspace(t *testing.T) {
	mixed, openOnly, small := equivalenceInstances(t)
	ctx := context.Background()
	for _, name := range Names() {
		s, err := Get(name)
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
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for i, ins := range instances {
				pooled, errP := s.Solve(ctx, ins)
				fresh, errF := SolveIsolated(ctx, s, ins)
				if (errP == nil) != (errF == nil) {
					t.Fatalf("instance %d: pooled err %v, fresh err %v", i, errP, errF)
				}
				if errP != nil {
					if errP.Error() != errF.Error() {
						t.Fatalf("instance %d: pooled error %q != fresh %q", i, errP, errF)
					}
					continue
				}
				sameResult(t, i, pooled, fresh)
				// A warm pooled workspace must not grow scratch anymore
				// once the sweep shape stabilizes; spot-check by solving
				// the same instance again.
				again, err := s.Solve(ctx, ins)
				if err != nil {
					t.Fatalf("instance %d resolve: %v", i, err)
				}
				sameResult(t, i, again, fresh)
			}
		})
	}
}

// TestResultEvalsCounters checks the Result.Evals plumbing: a
// search-based solve reports its probe and flow-query counts, and a
// warm workspace stops growing scratch.
func TestResultEvalsCounters(t *testing.T) {
	ins := generator.Figure1()
	s, err := Get("acyclic")
	if err != nil {
		t.Fatal(err)
	}
	ws := core.NewWorkspace()
	var last Result
	for i := 0; i < 3; i++ {
		last, err = s.run(context.Background(), ins, ws, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if last.Evals.GreedyTests == 0 {
			t.Fatalf("run %d: no greedy probes recorded: %+v", i, last.Evals)
		}
		if last.Evals.Builds == 0 {
			t.Fatalf("run %d: no builds recorded: %+v", i, last.Evals)
		}
	}
	if last.Evals.Grows != 0 {
		t.Fatalf("warm workspace still grew scratch: %+v", last.Evals)
	}
}

// TestIsolatedStepMatchesPooledCallers replays one churn sequence
// through two callers of the shared solve step and compares each
// answer with the same step on a fresh workspace, bit for bit on
// throughput and verified throughput, plus word, eval counters and
// Repaired:
//
//   - a warm-start Execute (WithWarmStart, pooled workspace) against
//     the acyclic repair run on a fresh workspace, which must hold at
//     least once;
//   - a Session over a non-incremental solver, which carries a word
//     between events yet must never report a repair or a fallback.
func TestIsolatedStepMatchesPooledCallers(t *testing.T) {
	ctx := context.Background()
	ses, err := NewSession("acyclic-search")
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	cases := []struct {
		name, solver string
		got          func(ins *platform.Instance, prev core.Word) (Result, error)
		fresh        func(s *Solver, ins *platform.Instance, prev core.Word) (Result, error)
		repairs      bool
	}{
		{
			name:   "warm-start Execute",
			solver: "acyclic",
			got: func(ins *platform.Instance, prev core.Word) (Result, error) {
				plan, err := Execute(ctx, NewRequest(ins, WithWarmStart(prev)))
				if err != nil {
					return Result{}, err
				}
				return plan.Result, nil
			},
			fresh: func(s *Solver, ins *platform.Instance, prev core.Word) (Result, error) {
				return s.run(ctx, ins, core.NewWorkspace(), prev, len(prev) > 0)
			},
			repairs: true,
		},
		{
			name:   "non-incremental Session",
			solver: "acyclic-search",
			got: func(ins *platform.Instance, _ core.Word) (Result, error) {
				return ses.Resolve(ctx, ins)
			},
			fresh: func(s *Solver, ins *platform.Instance, _ core.Word) (Result, error) {
				return SolveIsolated(ctx, s, ins)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Get(tc.solver)
			if err != nil {
				t.Fatal(err)
			}
			ins, muts := churnSequence(t, 11, 15)
			var prev core.Word
			repairs := 0
			for i := -1; i < len(muts); i++ {
				if i >= 0 {
					muts[i](ins)
				}
				got, err := tc.got(ins, prev)
				if err != nil {
					t.Fatalf("event %d: %v", i, err)
				}
				want, err := tc.fresh(s, ins, prev)
				if err != nil {
					t.Fatalf("event %d fresh: %v", i, err)
				}
				if math.Float64bits(got.Throughput) != math.Float64bits(want.Throughput) ||
					math.Float64bits(got.Verified) != math.Float64bits(want.Verified) {
					t.Fatalf("event %d: T %v verified %v, fresh T %v verified %v",
						i, got.Throughput, got.Verified, want.Throughput, want.Verified)
				}
				if got.Word.String() != want.Word.String() || got.Evals.EvalCounts != want.Evals.EvalCounts ||
					got.Repaired != want.Repaired {
					t.Fatalf("event %d: word %s evals %+v repaired %v, fresh word %s evals %+v repaired %v",
						i, got.Word, got.Evals.EvalCounts, got.Repaired, want.Word, want.Evals.EvalCounts, want.Repaired)
				}
				if got.Repaired {
					repairs++
				}
				prev = got.Word
			}
			if (repairs > 0) != tc.repairs {
				t.Fatalf("%d of %d events repaired, want repairs=%v", repairs, len(muts)+1, tc.repairs)
			}
		})
	}
	if st := ses.Stats(); st.Repairs != 0 || st.Fallbacks != 0 || st.FullSolves != st.Events {
		t.Fatalf("non-incremental session stats %+v, want only full solves", st)
	}
}
