package core

import (
	"math"

	"repro/internal/platform"
)

// OptimalCyclicThroughput returns the paper's closed-form optimal cyclic
// throughput (Lemma 5.1, achievable per Section V at the price of
// possibly unbounded degrees in the guarded case):
//
//	T* = min( b0, (b0+O)/m, (b0+O+G)/(n+m) )
//
// where O and G are the total open and guarded bandwidths. The middle
// term only applies when m ≥ 1, the last when n+m ≥ 1. With no receivers
// the throughput is unconstrained and b0 is returned.
func OptimalCyclicThroughput(ins *platform.Instance) float64 {
	n, m := ins.N(), ins.M()
	t := ins.B0
	if m >= 1 {
		t = math.Min(t, (ins.B0+ins.SumOpen())/float64(m))
	}
	if n+m >= 1 {
		t = math.Min(t, (ins.B0+ins.SumOpen()+ins.SumGuarded())/float64(n+m))
	}
	return t
}

// AcyclicOpenOptimalThroughput returns the optimal acyclic throughput for
// open-only instances (Section III-B): T*_ac = min(b0, S_{n-1}/n), where
// S_{n-1} = b0 + b1 + ... + b_{n-1} (nodes sorted non-increasing, so the
// smallest node's bandwidth is the one "wasted" by the last node of any
// topological order). It panics when the instance has guarded nodes —
// use OptimalAcyclicThroughputWithWorkspace for the general case.
func AcyclicOpenOptimalThroughput(ins *platform.Instance) float64 {
	if ins.M() != 0 {
		panic("core: AcyclicOpenOptimalThroughput requires an open-only instance")
	}
	n := ins.N()
	if n == 0 {
		return ins.B0
	}
	return math.Min(ins.B0, ins.OpenPrefix(n-1)/float64(n))
}

// AcyclicRatioLowerBoundOpen returns the Theorem 6.1 guarantee
// 1 − 1/n for open-only instances of size n (the acyclic throughput is at
// least this fraction of the cyclic optimum).
func AcyclicRatioLowerBoundOpen(n int) float64 {
	if n <= 0 {
		return 1
	}
	return 1 - 1/float64(n)
}

// WorstCaseRatio is the tight 5/7 bound of Theorem 6.2: for every
// instance, T*_ac / T* ≥ 5/7.
const WorstCaseRatio = 5.0 / 7.0

// AsymptoticWorstCaseRatio is the Theorem 6.3 limit (1+√41)/8 ≈ 0.9251:
// there are arbitrarily large instances whose acyclic/cyclic ratio stays
// below this value (plus ε).
var AsymptoticWorstCaseRatio = (1 + math.Sqrt(41)) / 8
