package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a reported percentile must have
// beyond it, so a tail latency is never read off a handful of points.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// fails when fewer than minTail samples lie above the returned rank:
// p90 needs at least 100 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", 100*q, n, max(n-rank, 0), minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// toMS converts a duration to float milliseconds.
func toMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianMS is the median of ds in milliseconds.
func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = toMS(d)
	}
	return median(xs)
}
