// Package stats provides the small statistical helpers the experiment
// harness uses: means, confidence intervals, and a fixed-bucket
// histogram for occupancy distributions. The paper reports arithmetic
// means over benchmarks ("SPECINT" bars).
//
// As in internal/power, a product that feeds a sum is converted
// explicitly, float64(x*y), so arm64 builds do not fuse it.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SampleStdDev returns the sample (n-1) standard deviation — the
// estimator confidence intervals are built on.
func SampleStdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// zFor returns the two-sided normal critical value for a confidence
// level. The sampled-simulation engine's windows number in the tens to
// thousands, so the normal approximation to the t distribution is
// adequate (SMARTS makes the same approximation).
func zFor(conf float64) float64 {
	switch {
	case conf >= 0.99:
		return 2.576
	case conf >= 0.98:
		return 2.326
	case conf >= 0.95:
		return 1.960
	case conf >= 0.90:
		return 1.645
	case conf >= 0.80:
		return 1.282
	default:
		return 1.0 // ~68%
	}
}

// MeanCI returns the sample mean and the half-width of its two-sided
// confidence interval at level conf (e.g. 0.95): mean ± half. With fewer
// than two observations the half-width is 0 — the caller has no
// dispersion information, not a zero-width certainty.
func MeanCI(xs []float64, conf float64) (mean, half float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	half = zFor(conf) * SampleStdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, half
}

// Histogram accumulates values into equal-width buckets over [Lo, Hi);
// out-of-range values clamp to the edge buckets. It renders as a compact
// ASCII bar chart, which the sdiq tools use for occupancy distributions.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int64
	count   int64
}

// NewHistogram returns a histogram with n buckets over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		n = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	n := len(h.Buckets)
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(n))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	h.Buckets[i]++
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// String renders the histogram with proportional bars.
func (h *Histogram) String() string {
	var max int64 = 1
	for _, b := range h.Buckets {
		if b > max {
			max = b
		}
	}
	out := ""
	width := (h.Hi - h.Lo) / float64(len(h.Buckets))
	for i, b := range h.Buckets {
		bar := int(40 * b / max)
		out += fmt.Sprintf("%8.1f |%-40s %d\n", h.Lo+float64(float64(i)*width), repeat('#', bar), b)
	}
	return out
}

func repeat(c byte, n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = c
	}
	return string(s)
}
