package nn

import (
	"math"

	"fedsu/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW activation over the batch
// and spatial dimensions, with learnable scale (gamma) and shift (beta) and
// running statistics for inference.
//
// The running mean and variance are exposed through Params with NoOpt set:
// the optimizer skips them, but federated synchronization includes them so
// every client evaluates with the same statistics — mirroring how FedAvg
// deployments average batch-norm buffers.

type BatchNorm2D struct {
	gamma, beta             *Param
	runningMean, runningVar *Param

	c        int
	momentum float64
	eps      float64

	// Forward cache.
	lastXHat   *tensor.Tensor
	lastInvStd []float64
	lastShape  []int
}

var _ Layer = (*BatchNorm2D)(nil)

// NewBatchNorm2D constructs batch normalization over c channels with
// the conventional momentum 0.1 and epsilon 1e-5.
func NewBatchNorm2D(c int) *BatchNorm2D {
	b := &BatchNorm2D{
		gamma:       newParam("gamma", c),
		beta:        newParam("beta", c),
		runningMean: newParam("running_mean", c),
		runningVar:  newParam("running_var", c),
		c:           c,
		momentum:    0.1,
		eps:         1e-5,
	}
	b.gamma.Value.Fill(1)
	b.runningVar.Value.Fill(1)
	b.runningMean.NoOpt = true
	b.runningVar.NoOpt = true
	return b
}

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	b.lastShape = x.Shape()
	plane := h * w
	count := float64(n * plane)
	out := tensor.New(n, c, h, w)
	xd, od := x.Data(), out.Data()
	gd, bd := b.gamma.Value.Data(), b.beta.Value.Data()

	if train {
		xhat := tensor.New(n, c, h, w)
		xh := xhat.Data()
		if cap(b.lastInvStd) < c {
			b.lastInvStd = make([]float64, c)
		}
		b.lastInvStd = b.lastInvStd[:c]
		rm, rv := b.runningMean.Value.Data(), b.runningVar.Value.Data()
		for ci := 0; ci < c; ci++ {
			mean, varr := 0.0, 0.0
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * plane
				for _, v := range xd[base : base+plane] {
					mean += v
				}
			}
			mean /= count
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * plane
				for _, v := range xd[base : base+plane] {
					d := v - mean
					varr += d * d
				}
			}
			varr /= count
			invStd := 1.0 / math.Sqrt(varr+b.eps)
			b.lastInvStd[ci] = invStd
			rm[ci] = (1-b.momentum)*rm[ci] + b.momentum*mean
			rv[ci] = (1-b.momentum)*rv[ci] + b.momentum*varr
			g, be := gd[ci], bd[ci]
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * plane
				for j := base; j < base+plane; j++ {
					xn := (xd[j] - mean) * invStd
					xh[j] = xn
					od[j] = g*xn + be
				}
			}
		}
		b.lastXHat = xhat
		return out
	}

	rm, rv := b.runningMean.Value.Data(), b.runningVar.Value.Data()
	for ci := 0; ci < c; ci++ {
		invStd := 1.0 / math.Sqrt(rv[ci]+b.eps)
		mean, g, be := rm[ci], gd[ci], bd[ci]
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * plane
			for j := base; j < base+plane; j++ {
				od[j] = g*(xd[j]-mean)*invStd + be
			}
		}
	}
	return out
}

// Backward implements Layer. It uses the standard batch-norm gradient:
// dx = (gamma * invStd / m) * (m*dy − sum(dy) − xhat * sum(dy*xhat)),
// with both channel sums accumulated in float64.
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := b.lastShape[0], b.lastShape[1], b.lastShape[2], b.lastShape[3]
	plane := h * w
	m := float64(n * plane)
	dx := tensor.New(b.lastShape...)
	gd := grad.Data()
	xh := b.lastXHat.Data()
	dd := dx.Data()
	ggrad, bgrad := b.gamma.Grad.Data(), b.beta.Grad.Data()
	gval := b.gamma.Value.Data()

	for ci := 0; ci < c; ci++ {
		sumDy, sumDyXhat := 0.0, 0.0
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * plane
			for j := base; j < base+plane; j++ {
				sumDy += gd[j]
				sumDyXhat += gd[j] * xh[j]
			}
		}
		ggrad[ci] = ggrad[ci] + sumDyXhat
		bgrad[ci] = bgrad[ci] + sumDy
		k := gval[ci] * b.lastInvStd[ci] / m
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * plane
			for j := base; j < base+plane; j++ {
				dd[j] = k * (m*gd[j] - sumDy - xh[j]*sumDyXhat)
			}
		}
	}
	// Release the normalized-activation cache; it is not needed again
	// until the next Forward.
	b.lastXHat = nil
	return dx
}

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param {
	return []*Param{b.gamma, b.beta, b.runningMean, b.runningVar}
}
