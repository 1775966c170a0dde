package nn

import "fedsu/internal/tensor"

// ReLU is the rectified-linear activation, applied element-wise. It keeps
// no mask: Backward gates the gradient on the
// saved output, which is positive exactly where the input was.
type ReLU struct {
	y, g *tensor.Tensor // step buffers (scratch.go)
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	r.y = stepScratchLike(r.y, x)
	tensor.ReLUInto(r.y, x)
	return r.y
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.g = stepScratchLike(r.g, grad)
	tensor.ReLUGateInto(r.g, grad, r.y)
	return r.g
}

func (r *ReLU) releaseScratch() {
	putScratch(&r.y)
	putScratch(&r.g)
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Flatten reshapes (N, C, H, W) activations to (N, C*H*W) row vectors on the
// way into fully-connected layers. It moves no data.
type Flatten struct {
	lastShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	f.lastShape = f.lastShape[:0]
	for i := 0; i < x.Dims(); i++ {
		f.lastShape = append(f.lastShape, x.Dim(i))
	}
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.lastShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
