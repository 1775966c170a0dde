package tensor

import (
	"math"
	"math/rand"
)

// RandNormal fills t with samples from N(mean, std²) drawn from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, mean, std float64) {
	for i := range t.data {
		t.data[i] = mean + std*rng.NormFloat64()
	}
}

// RandUniform fills t with samples from U[lo, hi) drawn from rng.
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.data {
		t.data[i] = lo + (hi-lo)*rng.Float64()
	}
}

// KaimingNormal fills t with He-normal initialization for a layer with the
// given fan-in, the standard initializer for ReLU networks.
func (t *Tensor) KaimingNormal(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	t.RandNormal(rng, 0, std)
}

// XavierUniform fills t with Glorot-uniform initialization for the given
// fan-in and fan-out, used by the fully-connected output layers.
func (t *Tensor) XavierUniform(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	t.RandUniform(rng, -limit, limit)
}
