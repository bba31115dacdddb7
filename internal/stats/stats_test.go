package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("mean = %f, want 4", got)
	}
}

// minMax returns the extrema of a non-empty slice: TestMeanBounds's
// oracle.
func minMax(xs []float64) (min, max float64) {
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

func TestMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			// Skip pathological inputs whose sum overflows float64.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		if len(xs) == 0 {
			return Mean(xs) == 0
		}
		m := Mean(xs)
		min, max := minMax(xs)
		return m >= min-1e-9 && m <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1, 5, 9.9, -3, 42} {
		h.Add(x)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d", h.Count())
	}
	// -3 clamps to bucket 0; 42 clamps to the last bucket.
	if h.Buckets[0] != 3 { // 0, 1, -3
		t.Errorf("bucket0 = %d, want 3", h.Buckets[0])
	}
	if h.Buckets[4] != 2 { // 9.9, 42
		t.Errorf("bucket4 = %d, want 2", h.Buckets[4])
	}
	if !strings.Contains(h.String(), "#") {
		t.Error("histogram rendering has no bars")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram(5, 5, 0) // invalid geometry gets repaired
	h.Add(5)
	if h.Count() != 1 || len(h.Buckets) != 1 {
		t.Errorf("degenerate histogram: %+v", h)
	}
}
