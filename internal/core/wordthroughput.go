package core

import (
	"math"
	"math/big"

	"repro/internal/platform"
)

// WordFeasible reports whether the increasing order encoded by w supports
// an acyclic scheme of throughput T. Per Lemma 4.4 (and the conservative
// dominance of Lemma 4.3), w is valid for T if and only if along the
// conservative filling:
//
//   - before every ■ letter, O(π) ≥ T (guarded nodes eat open capacity),
//   - before every ○ letter, O(π) + G(π) ≥ T.
func WordFeasible(ins *platform.Instance, w Word, T float64) bool {
	if w.Validate(ins) != nil || T <= 0 {
		return false
	}
	return wordFeasibleKernel(ins, w, T)
}

// wordFeasibleKernel is WordFeasible minus the O(L) word validation, for
// loops that probe one already-validated word at many throughputs (the
// long-word bisection runs it ~dozens of times per refinement, which at
// n=100k made redundant validation and the non-intrinsified NaN-aware
// math.Max the hottest region of the whole large-n solve). The branchy
// clamps are bit-identical to math.Max on these never-NaN operands.
func wordFeasibleKernel(ins *platform.Instance, w Word, T float64) bool {
	if T <= 0 {
		return false
	}
	eps := tol(T)
	bO, bG := ins.OpenBW, ins.GuardedBW
	Tme := T - eps
	O := ins.B0
	G := 0.0
	i, j := 0, 0
	for _, l := range w {
		if l == platform.Guarded {
			if O < Tme {
				return false
			}
			O -= T
			G += bG[j]
			j++
		} else {
			if O+G < Tme {
				return false
			}
			fromOpen := T - G
			if fromOpen < 0 {
				fromOpen = 0
			}
			O += bO[i] - fromOpen
			if G -= T; G < 0 {
				G = 0
			}
			i++
		}
	}
	return true
}

// WordThroughputWithWorkspace returns T*_ac(w), the optimal acyclic
// throughput over schemes compatible with the order encoded by w. Using
// the closed forms of Lemma 4.4,
//
//	O(π) = S^O_i − j·T − W(π),   O(π)+G(π) = S^O_i + S^G_j − (i+j)·T,
//	W(π) = max(0, max over ○-prefixes π'○ of (i'·T − S^G_{j'})),
//
// each validity condition expands into linear inequalities k·T ≤ B, so
// the per-word optimum is a minimum of B/k ratios — O(L²) of them.
//
// For long words (beyond wordExactCutoff letters) the quadratic
// enumeration is replaced by bisection over the O(L) feasibility check,
// which is indistinguishable at float64 resolution and keeps the
// average-case experiments (n = 1000, thousands of repetitions) fast.
//
// The W(π)-candidate scratch comes from ws (nil means a private
// workspace), so per-word evaluation inside search and enumeration
// loops stops allocating.
func WordThroughputWithWorkspace(ins *platform.Instance, w Word, ws *Workspace) float64 {
	if err := w.Validate(ins); err != nil {
		panic(err)
	}
	ws = ws.ensure()
	ws.stats.WordEvals++
	if len(w) > wordExactCutoff {
		return wordThroughputBisect(ins, w)
	}
	best := math.Inf(1)
	consider := func(bound float64, coeff int) {
		if v := bound / float64(coeff); v < best {
			best = v
		}
	}
	// cands: counts after each ○ position (W candidates of Lemma 4.4).
	cands := ws.cands[:0]
	defer func() { ws.cands = cands[:0] }()
	oSum := ins.B0 // S^O_i = b0 + b1 + ... + bi
	gSum := 0.0    // S^G_j
	i, j := 0, 0
	for _, l := range w {
		if l == platform.Guarded {
			// Constraint: O(prefix) ≥ T, prefix has counts (i, j).
			consider(oSum, j+1)
			for _, c := range cands {
				// O with W-candidate c: S^O_i − jT − (iS·T − gSumS) ≥ T.
				consider(oSum+c.gSum, j+1+c.iS)
			}
			gSum += ins.GuardedBW[j]
			j++
		} else {
			// Constraint: O+G ≥ T with counts (i, j).
			consider(oSum+gSum, i+j+1)
			oSum += ins.OpenBW[i]
			i++
			cands = append(cands, wCand{iS: i, gSum: gSum})
		}
	}
	if math.IsInf(best, 1) {
		// Empty word: no receivers; throughput is capped by the source.
		return ins.B0
	}
	return best
}

// wordExactCutoff separates the exact O(L²) evaluation from the O(L·log)
// bisection fast path.
const wordExactCutoff = 300

// wordThroughputBisect brackets T*_ac(w) with WordFeasible. 80 halvings
// of [0, T*] push the bracket below 2^-80·T*, far below float64 noise on
// the ratios the experiments report.
func wordThroughputBisect(ins *platform.Instance, w Word) float64 {
	hi := OptimalCyclicThroughput(ins)
	// The caller (WordThroughputWithWorkspace) already validated w, so the
	// probes go straight to the kernel instead of re-validating 80 times.
	if wordFeasibleKernel(ins, w, hi) {
		return hi
	}
	lo := 0.0
	for iter := 0; iter < 80; iter++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			// Bracket exhausted at float64 resolution; further halvings
			// cannot move lo.
			break
		}
		if wordFeasibleKernel(ins, w, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// WordThroughputExact is the exact-rational twin of
// WordThroughputWithWorkspace.
func WordThroughputExact(ins *platform.Instance, w Word) *big.Rat {
	if err := w.Validate(ins); err != nil {
		panic(err)
	}
	bs := ins.RatBandwidths()
	n := ins.N()
	var best *big.Rat
	consider := func(bound *big.Rat, coeff int64) {
		v := new(big.Rat).Quo(bound, new(big.Rat).SetInt64(coeff))
		if best == nil || v.Cmp(best) < 0 {
			best = v
		}
	}
	type wCand struct {
		iS   int
		gSum *big.Rat
	}
	var cands []wCand
	oSum := new(big.Rat).Set(bs[0])
	gSum := new(big.Rat)
	i, j := 0, 0
	for _, l := range w {
		if l == platform.Guarded {
			consider(oSum, int64(j+1))
			for _, c := range cands {
				consider(new(big.Rat).Add(oSum, c.gSum), int64(j+1+c.iS))
			}
			gSum = new(big.Rat).Add(gSum, bs[1+n+j])
			j++
		} else {
			consider(new(big.Rat).Add(oSum, gSum), int64(i+j+1))
			oSum = new(big.Rat).Add(oSum, bs[1+i])
			i++
			cands = append(cands, wCand{iS: i, gSum: gSum})
		}
	}
	if best == nil {
		return new(big.Rat).Set(bs[0])
	}
	return best
}
