package main

import "testing"

func TestSpreadNCoversTheRangeInEveryWindow(t *testing.T) {
	// Any 40 consecutive requests, as one low-rate slice sends, reach
	// within 15 of either end of 100-300 and stay inside it.
	const window = 40
	for _, phase := range []float64{0, 0.25, 0.5, 0.999} {
		ns := make([]int, 2000)
		for k := range ns {
			ns[k] = spreadN(phase, k, 100, 300)
			if ns[k] < 100 || ns[k] > 300 {
				t.Fatalf("phase %v: n[%d] = %d, outside 100-300", phase, k, ns[k])
			}
		}
		for lo := 0; lo+window <= len(ns); lo++ {
			least, most := 300, 100
			for _, n := range ns[lo : lo+window] {
				least, most = min(least, n), max(most, n)
			}
			if least > 115 || most < 285 {
				t.Fatalf("phase %v: requests %d-%d span only %d-%d", phase, lo, lo+window-1, least, most)
			}
		}
	}
}
