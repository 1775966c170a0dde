package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) = %v, want 4", got)
	}
}

// Property: CDF.At is monotonically non-decreasing.
func TestCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sample := make([]float64, 30)
		for i := range sample {
			sample[i] = rng.NormFloat64()
		}
		c := NewCDF(sample)
		prev := -1.0
		for x := -3.0; x <= 3.0; x += 0.1 {
			v := c.At(x)
			if v < prev {
				return false
			}
			prev = v
		}
		return prev <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3})
	xs, ys := c.Points(3)
	if len(xs) != 3 || len(ys) != 3 {
		t.Fatalf("Points(3) lengths = %d, %d", len(xs), len(ys))
	}
	if xs[0] != 1 || xs[2] != 5 {
		t.Errorf("Points x = %v, want [1 _ 5]", xs)
	}
	if ys[0] != 0 || ys[2] != 1 {
		t.Errorf("Points y = %v, want [0 _ 1]", ys)
	}
}

func TestNormalizedDifference(t *testing.T) {
	tests := []struct {
		name   string
		d1, d2 []float64
		want   float64
	}{
		{"identical", []float64{1, 2}, []float64{1, 2}, 0},
		{"unit-shift", []float64{3, 4}, []float64{3, 5}, 1.0 / 5},
		{"zero-base-zero-diff", []float64{0, 0}, []float64{0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := NormalizedDifference(tt.d1, tt.d2); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("NormalizedDifference = %v, want %v", got, tt.want)
			}
		})
	}
	if got := NormalizedDifference([]float64{0}, []float64{1}); !math.IsInf(got, 1) {
		t.Errorf("zero base with nonzero diff = %v, want +Inf", got)
	}
}
