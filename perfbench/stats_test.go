package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Error("median reordered its input")
	}
}

func TestMedianOfMedians(t *testing.T) {
	// Two ops, one fast and one slow; the slow op's outlier and the fast
	// op's outlier leave the per-op medians (10.5 and 99.5) in charge.
	groups := [][]float64{{10, 11, 9, 30}, {100, 99, 101, 50}}
	if got := medianOfMedians(groups); got != 55 {
		t.Errorf("medianOfMedians = %v, want 55", got)
	}
	if got := medianOfMedians([][]float64{{4, 2, 3}, nil}); got != 3 {
		t.Errorf("medianOfMedians with an empty group = %v, want 3", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{2, 1, 3}, [3]float64{1, 2, 3}},
		{[]float64{7, 1, 4, 9}, [3]float64{1.75, 5.5, 8.5}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile([]float64{4, 8}, 90); got != 8 {
		t.Errorf("p90 of {4, 8} = %v, want 8", got)
	}
}

// A reported tail needs ten samples beyond it: op_ms_p90 therefore needs
// 100 samples, and 99 leave only nine beyond.
func TestTailSampleRule(t *testing.T) {
	if got := samplesBeyond(100, 90); got != 10 {
		t.Errorf("samplesBeyond(100, 90) = %d, want 10", got)
	}
	if got := samplesBeyond(99, 90); got != 9 {
		t.Errorf("samplesBeyond(99, 90) = %d, want 9", got)
	}
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 20}, {90, 100}, {99, 1000}} {
		if got := minSamples(c.p); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.p, got, c.want)
		}
		if samplesBeyond(c.want, c.p) < tailSamples || samplesBeyond(c.want-1, c.p) >= tailSamples {
			t.Errorf("minSamples(%v) = %d is not the smallest count with %d samples beyond", c.p, c.want, tailSamples)
		}
	}
}
