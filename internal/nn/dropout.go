package nn

import (
	"math/rand"

	"fedsu/internal/tensor"
)

// Dropout randomly zeroes activations during training with probability p,
// scaling the survivors by 1/(1−p) (inverted dropout) so inference needs no
// adjustment.
type Dropout struct {
	p    float64
	rng  *rand.Rand
	keep []bool
}

var _ Layer = (*Dropout)(nil)

// NewDropout constructs a dropout layer with drop probability
// p ∈ [0, 1).
func NewDropout(rng *rand.Rand, p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0, 1)")
	}
	return &Dropout{p: p, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.p == 0 {
		return x
	}
	y := x.Clone()
	if cap(d.keep) < y.Len() {
		d.keep = make([]bool, y.Len())
	}
	d.keep = d.keep[:y.Len()]
	scale := 1.0 / (1.0 - d.p)
	data := y.Data()
	for i := range data {
		if d.rng.Float64() < d.p {
			d.keep[i] = false
			data[i] = 0
		} else {
			d.keep[i] = true
			data[i] = data[i] * scale
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.p == 0 {
		return grad
	}
	g := grad.Clone()
	scale := 1.0 / (1.0 - d.p)
	data := g.Data()
	for i := range data {
		if d.keep[i] {
			data[i] = data[i] * scale
		} else {
			data[i] = 0
		}
	}
	return g
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }
