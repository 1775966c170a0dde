// Package stats provides the light statistical machinery the FedSU
// reproduction's figures need: CDFs for the paper's distribution figures
// and the normalized-difference metric of Fig. 2.
package stats

import (
	"math"
	"sort"
)

// CDF summarizes a sample as an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from the given sample; the input slice is not
// modified.
func NewCDF(sample []float64) *CDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th sample quantile for q ∈ [0, 1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(q * float64(len(c.sorted)-1))
	return c.sorted[i]
}

// Points renders the CDF as n evenly-spaced (value, fraction) pairs for
// plotting, matching the paper's CDF figures.
func (c *CDF) Points(n int) (xs, ys []float64) {
	if len(c.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		if n == 1 {
			q = 1
		}
		xs[i] = c.Quantile(q)
		ys[i] = q
	}
	return xs, ys
}

// NormalizedDifference computes ‖δ₂ − δ₁‖ / ‖δ₁‖, the cross-round update
// similarity metric of Sec. III-A (following CMFL's definition). It returns
// +Inf when δ₁ is the zero vector and δ₂ is not.
func NormalizedDifference(d1, d2 []float64) float64 {
	if len(d1) != len(d2) {
		panic("stats: NormalizedDifference length mismatch")
	}
	var diff, base float64
	for i := range d1 {
		d := d2[i] - d1[i]
		diff += d * d
		base += d1[i] * d1[i]
	}
	if base == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(diff) / math.Sqrt(base)
}
