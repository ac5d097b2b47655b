package main

import (
	"math"
	"sort"
	"time"
)

// failedLatency stands in for the latency of a request that failed or
// answered wrongly: it sorts above every real sample, so a failure
// always counts as missing the latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// minBeyond is how many samples must lie above a reported tail
// percentile: "p99" is the highest percentile up to 99 that keeps at
// least this many samples beyond it.
const minBeyond = 10

// Pct is one nearest-rank percentile of a sample set.
type Pct struct {
	Q     float64       // the percentile actually reported, in (0, 100]
	Value time.Duration // the sample at that rank
	N     int           // sample count
}

// Ms returns the value in milliseconds.
func (p Pct) Ms() float64 { return float64(p.Value) / float64(time.Millisecond) }

// nearestRank returns the 1-based nearest rank of percentile q among n
// samples: the smallest k with k/n ≥ q/100.
func nearestRank(q float64, n int) int {
	k := int(math.Ceil(q / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank q-th percentile of sorted.
func percentile(sorted []time.Duration, q float64) Pct {
	n := len(sorted)
	if n == 0 {
		return Pct{}
	}
	k := nearestRank(q, n)
	return Pct{Q: 100 * float64(k) / float64(n), Value: sorted[k-1], N: n}
}

// tail returns the highest nearest-rank percentile up to q that leaves
// at least minBeyond samples above it. ok is false when the set holds
// too few samples for any such percentile at or above the median.
func tail(sorted []time.Duration, q float64) (Pct, bool) {
	n := len(sorted)
	k := nearestRank(q, n)
	if n-k < minBeyond {
		k = n - minBeyond
	}
	if n == 0 || k < nearestRank(50, n) {
		return Pct{N: n}, false
	}
	return Pct{Q: 100 * float64(k) / float64(n), Value: sorted[k-1], N: n}, true
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(xs []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianFloat returns the median of xs (the mean of the middle pair for
// an even count); 0 for an empty slice.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quietHalf is how many of n slices quietMedian keeps: half, rounded up.
func quietHalf(n int) int { return (n + 1) / 2 }

// quietMedian returns the median of xs over the half of its slices
// that saw the least CPU steal, ties kept in slice order. On a shared
// machine a slice's latency moves with the time the hypervisor hands
// to other guests while it runs, which comes in bursts; the quiet
// half reads the program's own latency while still pooling slices
// from across the whole run. A slower program is slower in every
// slice, quiet or not.
func quietMedian(xs, steal []float64) float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := make([]float64, 0, quietHalf(len(xs)))
	for _, i := range idx[:quietHalf(len(xs))] {
		keep = append(keep, xs[i])
	}
	return medianFloat(keep)
}
