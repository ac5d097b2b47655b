package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// randomMixedInstance draws an instance with nn open and mm guarded
// nodes, bandwidths in (0, 50], and a source in (T-ish, 100].
func randomMixedInstance(rng *rand.Rand, nn, mm int) *platform.Instance {
	open := make([]float64, nn)
	for i := range open {
		open[i] = 50 * (1 - rng.Float64())
	}
	guarded := make([]float64, mm)
	for i := range guarded {
		guarded[i] = 50 * (1 - rng.Float64())
	}
	return platform.MustInstance(10+90*rng.Float64(), open, guarded)
}

// smallRatInstance draws an instance whose bandwidths are small integers
// divided by small denominators, so exact rational comparisons exercise
// non-trivial fractions.
func smallRatInstance(rng *rand.Rand, nn, mm int) *platform.Instance {
	draw := func() float64 { return float64(1+rng.Intn(24)) / float64(1+rng.Intn(4)) }
	open := make([]float64, nn)
	for i := range open {
		open[i] = draw()
	}
	guarded := make([]float64, mm)
	for i := range guarded {
		guarded[i] = draw()
	}
	return platform.MustInstance(float64(2+rng.Intn(30)), open, guarded)
}

// TestGreedyMatchesExhaustive cross-checks the dichotomic search against
// exhaustive word enumeration with exact arithmetic on hundreds of small
// instances — the central correctness property of Algorithm 2
// (Lemma 4.5: greedy is complete).
func TestGreedyMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 250; trial++ {
		nn := rng.Intn(5)
		mm := rng.Intn(5)
		if nn+mm == 0 {
			nn = 1
		}
		ins := smallRatInstance(rng, nn, mm)
		want, bestWord, err := ExhaustiveAcyclicOptimum(ins)
		if err != nil {
			t.Fatal(err)
		}
		got, w, err := OptimalAcyclicThroughputWithWorkspace(ins, nil)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, ins, err)
		}
		wf, _ := want.Float64()
		if !almostEq(got, wf) {
			t.Fatalf("trial %d (%v): search %v (word %s), exhaustive %v (word %s)",
				trial, ins, got, w, wf, bestWord)
		}
	}
}

// TestGreedyExactMatchesExhaustive does the same with the exact greedy.
func TestGreedyExactMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 120; trial++ {
		nn := rng.Intn(4)
		mm := rng.Intn(4)
		if nn+mm == 0 {
			mm = 1
		}
		ins := smallRatInstance(rng, nn, mm)
		want, _, err := ExhaustiveAcyclicOptimum(ins)
		if err != nil {
			t.Fatal(err)
		}
		// The optimum itself must be greedily feasible...
		if _, ok := GreedyTestExact(ins, want); !ok {
			t.Fatalf("trial %d (%v): exact greedy rejects the exhaustive optimum %v", trial, ins, want)
		}
		// ...and anything strictly above must be refused.
		above := new(big.Rat).Mul(want, big.NewRat(1000001, 1000000))
		if want.Sign() > 0 {
			if _, ok := GreedyTestExact(ins, above); ok {
				t.Fatalf("trial %d (%v): exact greedy accepts %v > optimum %v", trial, ins, above, want)
			}
		}
	}
}

// TestGreedyMonotone: feasibility is monotone in T (the property the
// dichotomic search relies on).
func TestGreedyMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		ins := randomMixedInstance(rng, rng.Intn(8), rng.Intn(8))
		if ins.N()+ins.M() == 0 {
			continue
		}
		hi := OptimalCyclicThroughput(ins)
		prev := true
		for step := 1; step <= 20; step++ {
			T := hi * float64(step) / 20
			_, ok := GreedyTest(ins, T)
			if ok && !prev {
				t.Fatalf("trial %d (%v): feasibility not monotone at T=%v", trial, ins, T)
			}
			prev = ok
		}
	}
}

// TestGreedyFloatVsExact: the float and exact implementations agree away
// from the feasibility boundary.
func TestGreedyFloatVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		ins := smallRatInstance(rng, rng.Intn(6), rng.Intn(6))
		if ins.N()+ins.M() == 0 {
			continue
		}
		T := OptimalCyclicThroughput(ins) * (0.05 + 0.9*rng.Float64())
		rT := new(big.Rat)
		rT.SetFloat64(T)
		_, okF := GreedyTest(ins, T)
		_, okR := GreedyTestExact(ins, rT)
		if okF != okR {
			// Disagreement is only acceptable within float tolerance of
			// the boundary; verify by nudging.
			_, okLo := GreedyTestExact(ins, new(big.Rat).Mul(rT, big.NewRat(999999, 1000000)))
			_, okHi := GreedyTestExact(ins, new(big.Rat).Mul(rT, big.NewRat(1000001, 1000000)))
			if okLo == okHi {
				t.Fatalf("trial %d (%v, T=%v): float=%v exact=%v away from boundary", trial, ins, T, okF, okR)
			}
		}
	}
}

// TestBuildSchemeDegreesAndThroughput: for random mixed instances, build
// the low-degree scheme at (near-)optimal T and audit all Theorem 4.1
// guarantees plus acyclicity, firewall and max-flow throughput.
func TestBuildSchemeDegreesAndThroughput(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		nn := rng.Intn(10)
		mm := rng.Intn(10)
		if nn+mm == 0 {
			nn = 1
		}
		ins := randomMixedInstance(rng, nn, mm)
		T, s, _, err := SolveAcyclicWordWithWorkspace(ins, nil)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, ins, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !s.IsAcyclic() {
			t.Fatalf("trial %d: cyclic scheme from acyclic solver", trial)
		}
		if thr := s.Throughput(); thr < T*(1-1e-7) {
			t.Fatalf("trial %d (%v): throughput %v < T %v", trial, ins, thr, T)
		}
		assertGuardedOpenDegrees(t, ins, s, T)
		if t.Failed() {
			t.Fatalf("trial %d failed degree audit (%v, T=%v)", trial, ins, T)
		}
	}
}

// TestWordFeasibleAgreesWithThroughput: WordFeasible(T) iff
// T ≤ WordThroughput for the same word.
func TestWordFeasibleAgreesWithThroughput(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		nn := rng.Intn(6)
		mm := rng.Intn(6)
		if nn+mm == 0 {
			mm = 2
		}
		ins := randomMixedInstance(rng, nn, mm)
		// Random word with the right letter counts.
		word := append(AllOpenWord(nn), make(Word, mm)...)
		for i := nn; i < nn+mm; i++ {
			word[i] = platform.Guarded
		}
		rng.Shuffle(len(word), func(i, j int) { word[i], word[j] = word[j], word[i] })
		tw := WordThroughputWithWorkspace(ins, word, nil)
		if tw > 0 && !WordFeasible(ins, word, tw*(1-1e-9)) {
			t.Fatalf("trial %d: word %s infeasible just below its own throughput %v", trial, word, tw)
		}
		if WordFeasible(ins, word, tw*(1+1e-6)+1e-9) {
			t.Fatalf("trial %d: word %s feasible above its own throughput %v", trial, word, tw)
		}
	}
}

// TestGreedyTestLinearScaling is a smoke check of the Theorem 4.1
// linear-time claim: 100k nodes decided in well under a second.
func TestGreedyTestLinearScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ins := randomMixedInstance(rng, 50000, 50000)
	T := OptimalCyclicThroughput(ins) * 0.5
	if _, ok := GreedyTest(ins, T); !ok {
		t.Fatal("expected feasibility at half the cyclic optimum (Theorem 6.2 guarantees 5/7)")
	}
}
