package main

import (
	"testing"
	"time"
)

// millis returns the samples 1ms, 2ms, ..., n ms in order.
func millis(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{n: 100, q: 50, want: 50 * time.Millisecond},
		{n: 100, q: 99, want: 99 * time.Millisecond},
		{n: 10, q: 50, want: 5 * time.Millisecond},
		{n: 7, q: 50, want: 4 * time.Millisecond}, // ceil(3.5) = 4
		{n: 3, q: 100, want: 3 * time.Millisecond},
		{n: 1, q: 1, want: time.Millisecond},
	} {
		got := percentile(millis(tc.n), tc.q)
		if got.Value != tc.want || got.N != tc.n {
			t.Errorf("p%v of %d samples = %v (n=%d), want %v", tc.q, tc.n, got.Value, got.N, tc.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
		want  time.Duration
		ok    bool
	}{
		// Enough samples: the real p99 has 10 beyond it.
		{n: 1000, wantQ: 99, want: 990 * time.Millisecond, ok: true},
		{n: 2000, wantQ: 99, want: 1980 * time.Millisecond, ok: true},
		// Fewer: fall back to the rank with exactly 10 beyond.
		{n: 500, wantQ: 98, want: 490 * time.Millisecond, ok: true},
		{n: 100, wantQ: 90, want: 90 * time.Millisecond, ok: true},
		{n: 20, wantQ: 50, want: 10 * time.Millisecond, ok: true},
		// Too few for any tail at or above the median.
		{n: 19, ok: false},
		{n: 0, ok: false},
	} {
		got, ok := tail(millis(tc.n), 99)
		if ok != tc.ok {
			t.Errorf("tail of %d samples: ok=%v, want %v", tc.n, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.Value != tc.want || got.Q != tc.wantQ || got.N != tc.n {
			t.Errorf("tail of %d samples = p%v %v (n=%d), want p%v %v", tc.n, got.Q, got.Value, got.N, tc.wantQ, tc.want)
		}
		beyond := tc.n - int(got.Value/time.Millisecond)
		if beyond < minBeyond {
			t.Errorf("tail of %d samples leaves %d beyond, want ≥ %d", tc.n, beyond, minBeyond)
		}
	}
}

func TestFailuresSortAboveEveryLatency(t *testing.T) {
	xs := millis(200)
	for i := 0; i < 3; i++ {
		xs[i] = failedLatency
	}
	got, ok := tail(sortedCopy(xs), 99)
	if !ok || got.Value == failedLatency {
		t.Fatalf("three failures out of 200 should stay beyond the tail, got %v", got.Value)
	}
	for i := 0; i < 11; i++ {
		xs[i] = failedLatency
	}
	if got, _ := tail(sortedCopy(xs), 99); got.Value != failedLatency {
		t.Fatalf("eleven failures out of 200 must reach the tail, got %v", got.Value)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v", got)
	}
	if got := medianFloat(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func TestQuietMedianKeepsLeastStolenHalf(t *testing.T) {
	// The slices with 0, 1 and 2% steal read 5, 7 and 6 ms; the two
	// stolen ones read high and are left out.
	xs := []float64{9, 5, 7, 20, 6}
	steal := []float64{8, 0, 1, 12, 2}
	if got := quietMedian(xs, steal); got != 6 {
		t.Errorf("quiet median = %v, want 6", got)
	}
	// Equal steal keeps the earlier slices.
	if got := quietMedian([]float64{1, 2, 3, 4}, []float64{0, 0, 0, 0}); got != 1.5 {
		t.Errorf("quiet median with no steal = %v, want 1.5", got)
	}
	if got := quietMedian(nil, nil); got != 0 {
		t.Errorf("quiet median of nothing = %v", got)
	}
}
