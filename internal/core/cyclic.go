package core

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// CyclicOpenWithWorkspace implements the Theorem 5.2 constructor: for an instance
// without guarded nodes and a target throughput
// T ≤ T* = min(b0, (b0+O)/n), it builds a (generally cyclic) scheme of
// throughput T in which every node has outdegree
// o_i ≤ max(⌈b_i/T⌉ + 2, 4).
//
// The construction follows the paper's two phases:
//
//  1. run Algorithm 1 until the first index i0 with S_{i0-1} < i0·T,
//     yielding an (i0−1)-partial solution (if no such index exists the
//     acyclic scheme is already optimal and is returned as-is);
//  2. insert the remaining nodes one by one, rerouting small flows so
//     the last two inserted nodes always exchange a total of exactly T
//     (invariants (P1)–(P4) of the proof).
//
// Transient state (the reroute step's in-edge scan) lives on ws (nil
// means a private workspace) — the phase-2 insertion does not
// materialize the whole communication graph to read one node's
// in-edges.
func CyclicOpenWithWorkspace(ins *platform.Instance, T float64, ws *Workspace) (*Scheme, error) {
	if ins.M() != 0 {
		return nil, fmt.Errorf("core: CyclicOpen requires an open-only instance, got m=%d", ins.M())
	}
	ws = ws.ensure()
	ws.stats.Builds++
	n := ins.N()
	if n == 0 {
		return NewScheme(ins), nil
	}
	if T <= 0 {
		return nil, fmt.Errorf("core: CyclicOpen needs positive throughput, got %v", T)
	}
	tstar := OptimalCyclicThroughput(ins)
	if T > tstar+tol(tstar) {
		return nil, fmt.Errorf("core: throughput %v exceeds cyclic optimum %v", T, tstar)
	}
	T = math.Min(T, tstar) // clamp float dust so invariants hold exactly

	i0 := firstShortIndex(ins, T)
	if i0 == 0 {
		// Algorithm 1 reaches T on its own; nothing cyclic needed.
		scheme, lastFull, _ := acyclicOpenFill(ins, T, n)
		if lastFull != n {
			return nil, fmt.Errorf("core: internal: partial fill served %d < %d at T=%v", lastFull, n, T)
		}
		return scheme, nil
	}
	if i0 == 1 {
		return nil, fmt.Errorf("core: internal: i0=1 implies T > b0 (T=%v, b0=%v)", T, ins.B0)
	}

	// Phase 1: (i0−1)-partial solution from senders 0..i0−1.
	scheme, lastFull, missing := acyclicOpenFill(ins, T, i0-1)
	if lastFull != i0-1 {
		return nil, fmt.Errorf("core: internal: partial fill served %d, want %d", lastFull, i0-1)
	}
	mAt := func(i int) float64 { return float64(i)*T - ins.OpenPrefix(i-1) } // M_i = iT − S_{i−1}
	Mi := mAt(i0)
	if math.Abs(Mi-missing) > tol(T*float64(n)) {
		return nil, fmt.Errorf("core: internal: missing flow %v disagrees with M_%d=%v", missing, i0, Mi)
	}

	// The reroute edge (Cu, Cv) = (C0, C1) always carries rate T ≥ M_i.
	const u, v = 0, 1
	eps := tol(T)

	if i0 == n {
		// Simple case: no C_{i+1}; α = β = 0, R_n ignored.
		scheme.shift(u, v, -Mi)
		scheme.shift(u, n, +Mi)
		scheme.shift(n, v, +Mi)
		return scheme, nil
	}

	// Initial case: insert C_{i0} and C_{i0+1} together.
	i := i0
	Mnext := mAt(i + 1)
	alpha := math.Max(0, Mnext-Mi)
	beta := Mnext - alpha
	Ri := ins.Bandwidth(i) - Mi

	// Reroute α of C_i's partial in-flow (from the set A) to C_{i+1}.
	if alpha > eps {
		rem := alpha
		ws.edges = scheme.InEdges(i, ws.edges[:0])
		for _, e := range ws.edges {
			if rem <= eps {
				break
			}
			take := math.Min(e.Weight, rem)
			scheme.shift(e.From, i, -take)
			scheme.shift(e.From, i+1, +take)
			rem -= take
		}
		if rem > eps {
			return nil, fmt.Errorf("core: internal: cannot reroute α=%v from A (short %v)", alpha, rem)
		}
	}
	// Reroute M_i from the (u,v) edge to C_i.
	scheme.shift(u, v, -Mi)
	scheme.shift(u, i, +Mi)
	// C_i feeds C_{i+1} and gives back to C_v.
	scheme.shift(i, i+1, Ri+beta)
	if Mi-beta > eps {
		scheme.shift(i, v, Mi-beta)
	}
	// C_{i+1} closes the cycles.
	if beta > eps {
		scheme.shift(i+1, v, beta)
	}
	if alpha > eps {
		scheme.shift(i+1, i, alpha)
	}
	back := alpha // c_{i+1,i}

	// Induction: insert C_k for k = i0+2 .. n. The running pair is
	// (C_{k-1}, C_{k-2}) with c_{k-1,k-2} = back (and forward edge
	// c_{k-2,k-1} = T − back by invariant (P1)).
	for k := i + 2; k <= n; k++ {
		Mk := mAt(k)
		Rprev := ins.Bandwidth(k-1) - mAt(k-1)
		a := math.Max(0, Mk-back)
		b := Mk - a // = min(Mk, back)
		// C_{k-1} pours its remaining capacity into C_k.
		scheme.shift(k-1, k, Rprev)
		// Part b of the backward flow C_{k-1}→C_{k-2} detours via C_k.
		if b > eps {
			scheme.shift(k-1, k-2, -b)
			scheme.shift(k-1, k, +b)
			scheme.shift(k, k-2, +b)
		}
		// Part a of the forward flow C_{k-2}→C_{k-1} detours via C_k.
		if a > eps {
			scheme.shift(k-2, k-1, -a)
			scheme.shift(k-2, k, +a)
			scheme.shift(k, k-1, +a)
		}
		back = a
	}
	return scheme, nil
}

// SolveCyclicOpenWithWorkspace builds the optimal-throughput cyclic scheme for an
// open-only instance: T* = min(b0, (b0+O)/n) (Lemma 5.1 with m = 0),
// achieved with outdegrees ≤ max(⌈b_i/T*⌉+2, 4) (Theorem 5.2).
//
// A nil ws means a private workspace.
func SolveCyclicOpenWithWorkspace(ins *platform.Instance, ws *Workspace) (float64, *Scheme, error) {
	T := OptimalCyclicThroughput(ins)
	s, err := CyclicOpenWithWorkspace(ins, T, ws)
	if err != nil {
		return 0, nil, err
	}
	return T, s, nil
}
