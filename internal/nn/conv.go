package nn

import (
	"fmt"
	"math/rand"

	"fedsu/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW tensors. Its three products read the
// input, the weight and the output gradient in place through a tensor.ConvPlan;
// no column matrix is built.
type Conv2D struct {
	weight *Param // (outC, inC*KH*KW)
	bias   *Param // (outC)

	inC, outC int
	p         tensor.ConvParams
	useBias   bool

	// plan holds the offset tables for the last input shape; a new plane
	// rebuilds it, a new batch size does not.
	plan *tensor.ConvPlan
	// lastX is what Forward read and Backward reads again: a view of the
	// previous layer's buffer, or xpad for a padded geometry. Backward
	// clears it.
	lastX *tensor.Tensor

	// noInputGrad is set by NewModel on the network's first layer: nobody
	// reads ∂loss/∂input there, so Backward does not compute it.
	noInputGrad bool

	xpad, out, dx *tensor.Tensor // step buffers (scratch.go); xpad is the zero-bordered input
}

var _ Layer = (*Conv2D)(nil)

// ConvOpt customizes a Conv2D at construction time.
type ConvOpt func(*Conv2D)

// WithStride sets both spatial strides.
func WithStride(s int) ConvOpt {
	return func(c *Conv2D) { c.p.StrideH, c.p.StrideW = s, s }
}

// WithPadding sets both spatial paddings.
func WithPadding(p int) ConvOpt {
	return func(c *Conv2D) { c.p.PadH, c.p.PadW = p, p }
}

// WithoutBias disables the additive bias, the norm for conv layers followed
// by batch normalization.
func WithoutBias() ConvOpt {
	return func(c *Conv2D) { c.useBias = false }
}

// NewConv2D constructs a convolution with a square kernel and
// He-normal weight initialization. Stride defaults to 1 and padding to 0.
func NewConv2D(rng *rand.Rand, inC, outC, kernel int, opts ...ConvOpt) *Conv2D {
	c := &Conv2D{
		inC:     inC,
		outC:    outC,
		useBias: true,
		p:       tensor.ConvParams{KernelH: kernel, KernelW: kernel, StrideH: 1, StrideW: 1},
	}
	for _, o := range opts {
		o(c)
	}
	checkGeometry("conv", c.p)
	k := inC * kernel * kernel
	c.weight = newParam("weight", outC, k)
	c.weight.Value.KaimingNormal(rng, k)
	if c.useBias {
		c.bias = newParam("bias", outC)
	}
	return c
}

// Forward implements Layer. It panics unless x is NCHW with inC channels:
// the products read x through offset tables, which would silently read the
// wrong memory for a narrower input.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.inC {
		panic(fmt.Sprintf("nn: conv input %v, want 4-D NCHW with %d channels", x.Shape(), c.inC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	if c.plan == nil || !c.plan.Fits(x) {
		c.plan = tensor.NewConvPlan(c.inC, h, w, c.outC, c.p)
	}
	src := x
	if c.plan.Padded() {
		c.xpad = stepScratch(c.xpad, n, c.inC, h+2*c.p.PadH, w+2*c.p.PadW)
		tensor.PadInto(c.xpad, x, c.p.PadH, c.p.PadW)
		src = c.xpad
	}
	c.lastX = src
	oh, ow := c.p.OutSize(h, w)
	c.out = stepScratch(c.out, n, c.outC, oh, ow)
	var bias *tensor.Tensor
	if c.useBias {
		bias = c.bias.Value
	}
	c.plan.Forward(c.out, src, c.weight.Value, bias)
	return c.out
}

// Backward implements Layer. It reads the input Forward read, in place; the
// returned input gradient is a step buffer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.plan.WeightGrad(c.weight.Grad, c.lastX, grad)
	c.lastX = nil
	if c.useBias {
		biasGrad(c.bias.Grad.Data(), grad.Data(), grad.Dim(0), c.outC, grad.Dim(2)*grad.Dim(3))
	}
	if c.noInputGrad {
		return nil
	}
	h, w := c.plan.Plane()
	c.dx = stepScratch(c.dx, grad.Dim(0), c.inC, h, w)
	c.plan.InputGrad(c.dx, c.weight.Value, grad)
	return c.dx
}

// biasGrad adds each channel's sum of g (n, outC, plane) into bd. A sum runs
// over its N·plane terms image by image into an accumulator that is added
// once into the stored gradient. Four channels' sums advance
// side by side, each in its own (n, s) order, so the adds of one do not wait
// on another's.
func biasGrad(bd, g []float64, n, outC, plane int) {
	oc := 0
	for ; oc+4 <= outC; oc += 4 {
		var s0, s1, s2, s3 float64
		for ni := 0; ni < n; ni++ {
			base := (ni*outC + oc) * plane
			g0, g1 := g[base:base+plane], g[base+plane:base+2*plane]
			g2, g3 := g[base+2*plane:base+3*plane], g[base+3*plane:base+4*plane]
			for j, v := range g0 {
				s0 += v
				s1 += g1[j]
				s2 += g2[j]
				s3 += g3[j]
			}
		}
		bd[oc] += s0
		bd[oc+1] += s1
		bd[oc+2] += s2
		bd[oc+3] += s3
	}
	for ; oc < outC; oc++ {
		s := 0.0
		for ni := 0; ni < n; ni++ {
			for _, v := range g[(ni*outC+oc)*plane : (ni*outC+oc+1)*plane] {
				s += v
			}
		}
		bd[oc] += s
	}
}

// checkGeometry refuses, when a layer is built, a window or stride below 1
// and a negative pad: the first would pool to nothing and index −1, the
// second divides by zero in OutSize.
func checkGeometry(layer string, p tensor.ConvParams) {
	if p.KernelH < 1 || p.KernelW < 1 || p.StrideH < 1 || p.StrideW < 1 || p.PadH < 0 || p.PadW < 0 {
		panic(fmt.Sprintf("nn: %s window %dx%d, stride %dx%d, pad %dx%d: window and stride must be at least 1, pad at least 0",
			layer, p.KernelH, p.KernelW, p.StrideH, p.StrideW, p.PadH, p.PadW))
	}
}

func (c *Conv2D) skipInputGrad() { c.noInputGrad = true }

func (c *Conv2D) releaseScratch() {
	c.lastX = nil // a view of the previous layer's buffer, or xpad
	putScratch(&c.xpad)
	putScratch(&c.out)
	putScratch(&c.dx)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.useBias {
		return []*Param{c.weight, c.bias}
	}
	return []*Param{c.weight}
}
