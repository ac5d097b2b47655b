package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/platform"
)

// request wraps an instance the way every workload asks for it: the
// acyclic solver, verified by max-flow within 1e-9.
func request(ins *platform.Instance) engine.Request {
	return engine.NewRequest(ins, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
}

// rngFor derives an independent generator for one input stream of a
// seeded run.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// randomInstance draws a generator.Random platform with n receivers,
// pOpen 0.6, its law alternating Unif100 / Power2 with k's parity.
func randomInstance(rng *rand.Rand, n, k int) (*platform.Instance, error) {
	dist := distribution.Unif100()
	if k%2 == 1 {
		dist = distribution.Power2()
	}
	var err error
	for try := 0; try < 8; try++ {
		var ins *platform.Instance
		if ins, err = generator.Random(dist, n, 0.6, rng); err == nil {
			return ins, nil
		}
	}
	return nil, err
}

// randomRequests draws count requests; n is drawn uniformly from
// [nLo, nHi] for each.
func randomRequests(rng *rand.Rand, count, nLo, nHi int) ([]engine.Request, error) {
	out := make([]engine.Request, count)
	for k := range out {
		ins, err := randomInstance(rng, nLo+rng.Intn(nHi-nLo+1), k)
		if err != nil {
			return nil, err
		}
		out[k] = request(ins)
	}
	return out, nil
}

// spreadN is the n of stream index k in [lo, hi]: the sequence
// frac(phase + k/φ) scaled onto the range. Over the whole stream n is
// uniform in [lo, hi] as with independent draws, but any few dozen
// consecutive indices already cover the range evenly, so each short
// slice of a run, and each run whatever its seed, sends the same mix
// of sizes; the seed still draws the phase and every platform.
func spreadN(phase float64, k, lo, hi int) int {
	_, u := math.Modf(phase + float64(k)*(math.Sqrt(5)-1)/2)
	return lo + min(int(u*float64(hi-lo+1)), hi-lo)
}

// tier names the answer path a churn request is built to take.
type tier int

const (
	tierWarm tier = iota // one rescale: a stored neighbor warm-starts a repair
	tierMiss             // six rescales: beyond the edit budget, a cold solve and a log append
	tierHit              // an exact repeat of an earlier mutant: a front-cache hit
)

// churnStream is the churn-store input: base platforms persisted in
// set-up and a timed stream of mutants of them.
type churnStream struct {
	bases []engine.Request
	reqs  []engine.Request
	tiers []tier
	// origin[i] is the earlier stream index request i repeats, -1-b
	// when it repeats base b, and noOrigin when it is no repeat.
	origin []int
}

// noOrigin marks a churn request that repeats nothing.
const noOrigin = math.MinInt

// Repeats draw from the mutants sent between repeatLo and repeatHi
// requests earlier: long enough ago to have been answered, recently
// enough to sit in the 1024-entry front cache.
const (
	repeatLo = 32
	repeatHi = 512
)

// newChurnStream draws nBases n=200 base platforms; extend draws the
// timed stream.
func newChurnStream(rng *rand.Rand, nBases int) (*churnStream, error) {
	cs := &churnStream{}
	for k := 0; k < nBases; k++ {
		ins, err := randomInstance(rng, 200, k)
		if err != nil {
			return nil, err
		}
		cs.bases = append(cs.bases, request(ins))
	}
	return cs, nil
}

// extend draws timed requests until the stream holds n: 70% one-rescale
// mutants, 20% six-rescale mutants, 10% exact repeats.
func (cs *churnStream) extend(rng *rand.Rand, n int) error {
	for i := len(cs.reqs); i < n; i++ {
		kind := tierHit
		switch r := rng.Float64(); {
		case r < 0.7:
			kind = tierWarm
		case r < 0.9:
			kind = tierMiss
		}
		cs.tiers = append(cs.tiers, kind)
		if kind == tierHit {
			j := cs.pickRepeat(rng, i)
			cs.origin = append(cs.origin, j)
			if j >= 0 {
				cs.reqs = append(cs.reqs, cs.reqs[j])
			} else {
				cs.reqs = append(cs.reqs, cs.bases[-1-j])
			}
			continue
		}
		cs.origin = append(cs.origin, noOrigin)
		rescales := 1
		if kind == tierMiss {
			rescales = 6
		}
		ins, err := mutate(cs.bases[rng.Intn(len(cs.bases))].Instance, rescales, rng)
		if err != nil {
			return err
		}
		cs.reqs = append(cs.reqs, request(ins))
	}
	return nil
}

// pickRepeat picks an earlier non-repeat request to resend, or a base
// (as -1-b) while the stream is too young to have one.
func (cs *churnStream) pickRepeat(rng *rand.Rand, i int) int {
	lo, hi := max(i-repeatHi, 0), i-repeatLo
	if hi > lo {
		for try := 0; try < 8; try++ {
			if j := lo + rng.Intn(hi-lo); cs.tiers[j] != tierHit {
				return j
			}
		}
	}
	return -1 - rng.Intn(len(cs.bases))
}

// mutate returns a copy of base with k distinct receivers rescaled by
// factors in [0.5, 1.5).
func mutate(base *platform.Instance, k int, rng *rand.Rand) (*platform.Instance, error) {
	ins := base.Clone()
	n := base.N()
	for _, p := range rng.Perm(n + base.M())[:k] {
		f := 0.5 + rng.Float64()
		var err error
		if p < n {
			_, err = ins.RescaleOpen(rankOf(ins.OpenBW, base.OpenBW[p]), f)
		} else {
			_, err = ins.RescaleGuarded(rankOf(ins.GuardedBW, base.GuardedBW[p-n]), f)
		}
		if err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// rankOf finds v in a class's bandwidths (it is there: only other
// nodes have been rescaled so far).
func rankOf(bs []float64, v float64) int {
	for r, b := range bs {
		if b == v {
			return r
		}
	}
	panic(fmt.Sprintf("bandwidth %v vanished from its class", v))
}

// batchSizes is the node-count mix of every batch-large job: one each
// of 1k and 5k and two of 2k, so every job asks for the same work.
var batchSizes = []int{1000, 2000, 5000, 2000}

// batchJobs draws count jobs of four generator.LargeScale platforms.
func batchJobs(rng *rand.Rand, count int) ([][]engine.Request, error) {
	jobs := make([][]engine.Request, count)
	for j := range jobs {
		for _, n := range batchSizes {
			ins, err := generator.LargeScale(generator.LargeScaleConfig{
				Nodes: n, POpen: 0.6, Dist: distribution.Power2(), Seed: rng.Int63(),
			})
			if err != nil {
				return nil, err
			}
			jobs[j] = append(jobs[j], request(ins))
		}
	}
	return jobs, nil
}
