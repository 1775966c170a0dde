package fl

import (
	"math"
	"testing"

	"fedsu/internal/data"
	"fedsu/internal/nn"
	"fedsu/internal/opt"
)

func proxClient(t *testing.T, mu float64) *Client {
	t.Helper()
	ds := data.Synthesize(data.SynthConfig{
		Name: "prox", Channels: 1, Size: 6, Classes: 2,
		Samples: 64, Noise: 0.2, Seed: 4,
	})
	model := nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 6, NumClasses: 2, Seed: 3}, 8)
	c := NewClient(0, model, opt.NewSGD(0.1), data.NewSubset(ds, seq(64)), nil, 1)
	c.SetProximal(mu)
	return c
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestProximalAnchorsLocalTraining: the larger μ, the smaller the local
// drift from the round-start model — the FedProx contract. Every one of
// eight rounds' batch draws must drift less under μ = 10 than under μ = 0,
// and the eight drifts together at most a third as far. μ = 10 is lr·μ = 1,
// the strongest anchoring a plain SGD step allows (past lr·μ = 2 the term
// overshoots); per draw it leaves 0.03–0.31 of the free drift.
func TestProximalAnchorsLocalTraining(t *testing.T) {
	drift := func(mu float64, round int) float64 {
		c := proxClient(t, mu)
		start := c.Model().Vector()
		c.TrainLocal(round, 10, 8)
		end := c.Model().Vector()
		s := 0.0
		for i := range start {
			d := end[i] - start[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	free, anchored := 0.0, 0.0
	for round := 0; round < 8; round++ {
		f, a := drift(0, round), drift(10, round)
		if a >= f {
			t.Errorf("round %d: μ=10 drift %v must be below μ=0 drift %v", round, a, f)
		}
		free, anchored = free+f, anchored+a
	}
	if anchored > free/3 {
		t.Errorf("strong proximal term should shrink drift substantially: %v vs %v", anchored, free)
	}
}

func TestProximalZeroIsVanillaSGD(t *testing.T) {
	a := proxClient(t, 0)
	b := proxClient(t, 0)
	b.proxMu = 0 // explicit no-op
	a.TrainLocal(0, 5, 4)
	b.TrainLocal(0, 5, 4)
	va, vb := a.Model().Vector(), b.Model().Vector()
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("identical zero-μ clients must train identically")
		}
	}
}
