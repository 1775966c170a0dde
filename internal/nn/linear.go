package nn

import (
	"math/rand"

	"fedsu/internal/tensor"
)

// Linear is a fully-connected layer computing y = xW + b over batched row
// vectors: x is (N, in), W is (in, out), b is (out). The type parameter
// selects the storage and compute width of its parameters and activations.
type Linear[E tensor.Elem] struct {
	weight *Param
	bias   *Param

	in, out int
	lastX   *tensor.Tensor

	noInputGrad bool           // see Conv2D.noInputGrad
	y, dx       *tensor.Tensor // step buffers (scratch.go)
}

var (
	_ Layer = (*Linear[float64])(nil)
	_ Layer = (*Linear[float32])(nil)
)

// NewLinear constructs a float64 fully-connected layer with Xavier-uniform
// weights, the historical default width.
func NewLinear(rng *rand.Rand, in, out int) *Linear[float64] {
	return newLinearOf[float64](rng, in, out)
}

func newLinearOf[E tensor.Elem](rng *rand.Rand, in, out int) *Linear[E] {
	l := &Linear[E]{
		weight: newParamOf[E]("weight", in, out),
		bias:   newParamOf[E]("bias", out),
		in:     in,
		out:    out,
	}
	l.weight.Value.XavierUniform(rng, in, out)
	return l
}

// In returns the input feature count.
func (l *Linear[E]) In() int { return l.in }

// Out returns the output feature count.
func (l *Linear[E]) Out() int { return l.out }

// Forward implements Layer.
func (l *Linear[E]) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n := x.Dim(0)
	x2 := x
	if x.Dims() != 2 {
		x2 = x.Reshape(n, x.Len()/n)
	}
	l.lastX = x2
	l.y = stepScratch(l.y, tensor.DTypeOf[E](), n, l.out)
	tensor.MatMulInto(l.y, x2, l.weight.Value)
	bd := tensor.DataOf[E](l.bias.Value)
	yd := tensor.DataOf[E](l.y)
	for i := 0; i < n; i++ {
		row := yd[i*l.out : (i+1)*l.out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return l.y
}

// Backward implements Layer.
func (l *Linear[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	// dW += xᵀ × grad, accumulated in place (no temporary + Add pass).
	tensor.MatMulTransAAcc(l.weight.Grad, l.lastX, grad)
	// db = column sums of grad, accumulated at storage width — the same
	// accumulator policy as dW, whose matmul accumulates in E.
	gd := tensor.DataOf[E](grad)
	bd := tensor.DataOf[E](l.bias.Grad)
	for i := 0; i < n; i++ {
		row := gd[i*l.out : (i+1)*l.out]
		for j := range row {
			bd[j] += row[j]
		}
	}
	if l.noInputGrad {
		return nil
	}
	// dx = grad × Wᵀ, with W stored (in, out): use MatMulTransB.
	l.dx = stepScratch(l.dx, tensor.DTypeOf[E](), n, l.in)
	tensor.MatMulTransBInto(l.dx, grad, l.weight.Value)
	return l.dx
}

func (l *Linear[E]) skipInputGrad() { l.noInputGrad = true }

func (l *Linear[E]) releaseScratch() {
	l.lastX = nil // a view of the previous layer's buffer
	putScratch(&l.y)
	putScratch(&l.dx)
}

// Params implements Layer.
func (l *Linear[E]) Params() []*Param { return []*Param{l.weight, l.bias} }
