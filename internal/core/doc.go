// Package core implements the broadcast-scheme algorithms of
// "Broadcasting on Large Scale Heterogeneous Platforms under the Bounded
// Multi-Port Model" (Beaumont, Bonichon, Eyraud-Dubois, Uznański,
// Agrawal; IPDPS 2010 / IEEE TPDS 2014):
//
//   - Scheme — weighted overlay with bandwidth/firewall validation and
//     max-flow throughput verification (Section II-D);
//   - AcyclicOpen (Algorithm 1) — optimal acyclic schemes for open-only
//     instances with outdegree ≤ ⌈b_i/T⌉+1 (Section III-B);
//   - OptimalCyclicThroughput — the closed-form optimal cyclic throughput
//     min(b0, (b0+O)/m, (b0+O+G)/(n+m)) (Lemma 5.1);
//   - GreedyTest (Algorithm 2) — linear-time feasibility test returning a
//     valid encoding word (Section IV-B), with an execution-trace variant
//     reproducing Table I;
//   - BuildSchemeWithWorkspace — the low-degree scheme construction from
//     a word (Lemma 4.6: guarded ≤ ⌈b_j/T⌉+1, one open ≤ ⌈b_i/T⌉+3,
//     all other open ≤ ⌈b_i/T⌉+2);
//   - OptimalAcyclicThroughputWithWorkspace — dichotomic search over
//     GreedyTest (Theorem 4.1);
//   - CyclicOpenWithWorkspace — the cyclic constructor for open-only
//     instances with outdegree ≤ max(⌈b_i/T⌉+2, 4) (Theorem 5.2);
//   - Omega1/Omega2 — the canonical encoding words of Theorem 6.2's case
//     analysis, plus per-word optimal throughput (exact and float64);
//   - ExhaustiveAcyclicOptimum — brute-force ground truth over all
//     increasing orders for small instances.
//
// Numerical conventions: the float64 entry points accept a tolerance of
// Eps (scale-aware) when testing feasibility; the *Exact variants use
// math/big.Rat throughout and are the reference implementations against
// which the fast paths are property-tested.
package core
