package nn

import "fedsu/internal/tensor"

// ReLU is the rectified-linear activation, applied element-wise at the
// storage width E.
type ReLU[E tensor.Elem] struct {
	mask []bool
	y, g *tensor.Tensor // step buffers (scratch.go)
}

var (
	_ Layer = (*ReLU[float64])(nil)
	_ Layer = (*ReLU[float32])(nil)
)

// NewReLU constructs a float64 ReLU activation layer.
func NewReLU() *ReLU[float64] { return newReLUOf[float64]() }

func newReLUOf[E tensor.Elem]() *ReLU[E] { return &ReLU[E]{} }

// Forward implements Layer: one pass writes the output and the mask.
func (r *ReLU[E]) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	r.y = stepScratchLike(r.y, x)
	xd, yd := tensor.DataOf[E](x), tensor.DataOf[E](r.y)
	if cap(r.mask) < len(xd) {
		r.mask = make([]bool, len(xd))
	}
	mask := r.mask[:len(xd)]
	r.mask = mask
	yd = yd[:len(xd)]
	for i, v := range xd {
		pos := v > 0
		mask[i] = pos
		if !pos {
			v = 0
		}
		yd[i] = v
	}
	return r.y
}

// Backward implements Layer: one pass writes the masked gradient.
func (r *ReLU[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.g = stepScratchLike(r.g, grad)
	gd, od := tensor.DataOf[E](grad), tensor.DataOf[E](r.g)
	mask := r.mask[:len(gd)]
	od = od[:len(gd)]
	for i, v := range gd {
		if !mask[i] {
			v = 0
		}
		od[i] = v
	}
	return r.g
}

func (r *ReLU[E]) releaseScratch() {
	putScratch(&r.y)
	putScratch(&r.g)
}

// Params implements Layer.
func (r *ReLU[E]) Params() []*Param { return nil }

// Flatten reshapes (N, C, H, W) activations to (N, C*H*W) row vectors on the
// way into fully-connected layers. It moves no data, so it needs no type
// parameter: Reshape preserves the dtype of its input.
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
