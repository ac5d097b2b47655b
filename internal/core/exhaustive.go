package core

import (
	"fmt"
	"math/big"

	"repro/internal/platform"
)

// maxExhaustiveLetters caps exhaustive enumeration: C(22,11) ≈ 705k words,
// each evaluated in O(L²) — comfortably below a second. Larger instances
// must use the dichotomic search.
const maxExhaustiveLetters = 22

// ExhaustiveAcyclicOptimum enumerates every increasing order (all
// C(n+m, m) encoding words, per the Lemma 4.2 dominance) and returns the
// exact optimal acyclic throughput and a witness word. It is the ground
// truth the fast GreedyTest path is validated against; it errors out on
// instances with more than maxExhaustiveLetters receivers.
func ExhaustiveAcyclicOptimum(ins *platform.Instance) (*big.Rat, Word, error) {
	n, m := ins.N(), ins.M()
	if n+m > maxExhaustiveLetters {
		return nil, nil, fmt.Errorf("core: exhaustive search limited to %d receivers, got %d", maxExhaustiveLetters, n+m)
	}
	if n+m == 0 {
		r := new(big.Rat)
		r.SetFloat64(ins.B0)
		return r, Word{}, nil
	}
	var best *big.Rat
	var bestWord Word
	word := make(Word, 0, n+m)
	var rec func(openLeft, guardedLeft int)
	rec = func(openLeft, guardedLeft int) {
		if openLeft == 0 && guardedLeft == 0 {
			t := WordThroughputExact(ins, word)
			if best == nil || t.Cmp(best) > 0 {
				best = t
				bestWord = append(Word(nil), word...)
			}
			return
		}
		if openLeft > 0 {
			word = append(word, platform.Open)
			rec(openLeft-1, guardedLeft)
			word = word[:len(word)-1]
		}
		if guardedLeft > 0 {
			word = append(word, platform.Guarded)
			rec(openLeft, guardedLeft-1)
			word = word[:len(word)-1]
		}
	}
	rec(n, m)
	return best, bestWord, nil
}

// ExhaustiveAcyclicOptimumFloat is the float64 variant (same enumeration,
// cheaper evaluation); used by benchmarks and the worst-case explorer.
func ExhaustiveAcyclicOptimumFloat(ins *platform.Instance) (float64, Word, error) {
	n, m := ins.N(), ins.M()
	if n+m > maxExhaustiveLetters {
		return 0, nil, fmt.Errorf("core: exhaustive search limited to %d receivers, got %d", maxExhaustiveLetters, n+m)
	}
	if n+m == 0 {
		return ins.B0, Word{}, nil
	}
	best := -1.0
	var bestWord Word
	word := make(Word, 0, n+m)
	var rec func(openLeft, guardedLeft int)
	rec = func(openLeft, guardedLeft int) {
		if openLeft == 0 && guardedLeft == 0 {
			if t := WordThroughputWithWorkspace(ins, word, nil); t > best {
				best = t
				bestWord = append(Word(nil), word...)
			}
			return
		}
		if openLeft > 0 {
			word = append(word, platform.Open)
			rec(openLeft-1, guardedLeft)
			word = word[:len(word)-1]
		}
		if guardedLeft > 0 {
			word = append(word, platform.Guarded)
			rec(openLeft, guardedLeft-1)
			word = word[:len(word)-1]
		}
	}
	rec(n, m)
	return best, bestWord, nil
}
