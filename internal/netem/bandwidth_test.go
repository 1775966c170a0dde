package netem

import (
	"math"
	"testing"
)

func TestBandwidthHeterogeneitySpreadsTimes(t *testing.T) {
	mk := func(sigma float64) *Cluster {
		cfg := DefaultConfig(32)
		cfg.BandwidthSigma = sigma
		cfg.ComputeHeterogeneity = 0
		cfg.RoundJitter = 0
		cfg.LatencySeconds = 0
		cfg.Participation = 1
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	spread := func(c *Cluster) float64 {
		out := c.Round(0, c.UniformLoad(1_000_000, 1_000_000, 0))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range out.ClientTimes {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return hi / lo
	}
	homo := spread(mk(0))
	hetero := spread(mk(0.6))
	if math.Abs(homo-1) > 1e-9 {
		t.Errorf("homogeneous spread = %v, want 1", homo)
	}
	if hetero < 1.5 {
		t.Errorf("lognormal σ=0.6 spread = %v, want > 1.5", hetero)
	}
}

func TestBandwidthMultiplierMedianNearOne(t *testing.T) {
	cfg := DefaultConfig(2000)
	cfg.BandwidthSigma = 0.5
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	above := 0
	for _, m := range c.bwMult {
		if m > 1 {
			above++
		}
	}
	frac := float64(above) / 2000
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("fraction above median = %v, want ≈0.5", frac)
	}
}
