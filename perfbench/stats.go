package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOfMedians is the median over groups of each group's median.
// Every pass repeats the same ops, each with its own typical host time,
// so the pooled times form one cluster per op. Their pooled median sits
// on the edge between two clusters and follows those clusters' extreme
// samples; the median of the per-op medians does not.
func medianOfMedians(groups [][]float64) float64 {
	meds := make([]float64, 0, len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			meds = append(meds, median(g))
		}
	}
	return median(meds)
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how run-to-run spreads of this benchmark are judged.
// A single value is its own quartiles; an empty slice gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond counts the samples that lie strictly above the
// nearest-rank p-th percentile of n samples.
func samplesBeyond(n int, p float64) int { return n - rank(n, p) }

// tailSamples is how many samples must lie beyond a reported percentile
// for it to be a measurement rather than a single outlier.
const tailSamples = 10

// minSamples is the smallest sample count for which the p-th percentile
// has tailSamples samples beyond it; runs are sized to reach it.
func minSamples(p float64) int {
	n := 1
	for samplesBeyond(n, p) < tailSamples {
		n++
	}
	return n
}
