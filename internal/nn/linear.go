package nn

import (
	"math/rand"

	"fedsu/internal/tensor"
)

// Linear is a fully-connected layer computing y = xW + b over batched row
// vectors: x is (N, in), W is (in, out), b is (out).
type Linear struct {
	weight *Param
	bias   *Param

	in, out int
	lastX   *tensor.Tensor

	noInputGrad bool           // see Conv2D.noInputGrad
	y, dx       *tensor.Tensor // step buffers (scratch.go)
}

var _ Layer = (*Linear)(nil)

// NewLinear constructs a fully-connected layer with Xavier-uniform
// weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	l := &Linear{
		weight: newParam("weight", in, out),
		bias:   newParam("bias", out),
		in:     in,
		out:    out,
	}
	l.weight.Value.XavierUniform(rng, in, out)
	return l
}

// In returns the input feature count.
func (l *Linear) In() int { return l.in }

// Out returns the output feature count.
func (l *Linear) Out() int { return l.out }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n := x.Dim(0)
	x2 := x
	if x.Dims() != 2 {
		x2 = x.Reshape(n, x.Len()/n)
	}
	l.lastX = x2
	l.y = stepScratch(l.y, n, l.out)
	tensor.MatMulInto(l.y, x2, l.weight.Value)
	bd := l.bias.Value.Data()
	yd := l.y.Data()
	for i := 0; i < n; i++ {
		row := yd[i*l.out : (i+1)*l.out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return l.y
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	// dW += xᵀ × grad, accumulated in place (no temporary + Add pass).
	tensor.MatMulTransAAcc(l.weight.Grad, l.lastX, grad)
	// db = column sums of grad.
	gd := grad.Data()
	bd := l.bias.Grad.Data()
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
	l.dx = stepScratch(l.dx, n, l.in)
	tensor.MatMulTransBInto(l.dx, grad, l.weight.Value)
	return l.dx
}

func (l *Linear) skipInputGrad() { l.noInputGrad = true }

func (l *Linear) releaseScratch() {
	l.lastX = nil // a view of the previous layer's buffer
	putScratch(&l.y)
	putScratch(&l.dx)
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.weight, l.bias} }
