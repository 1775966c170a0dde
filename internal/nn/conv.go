package nn

import (
	"math/rand"

	"fedsu/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW tensors, lowered to matrix
// multiplication via im2col, parameterized over the storage width E.
type Conv2D[E tensor.Elem] struct {
	weight *Param // (outC, inC*KH*KW)
	bias   *Param // (outC)

	inC, outC int
	p         tensor.ConvParams
	useBias   bool

	lastCols       *tensor.Tensor
	lastN, lastH   int
	lastW          int
	lastOH, lastOW int

	// noInputGrad is set by NewModel on the network's first layer: nobody
	// reads ∂loss/∂input there, so Backward does not compute it.
	noInputGrad bool

	out, dx *tensor.Tensor // step buffers (scratch.go)
}

var (
	_ Layer = (*Conv2D[float64])(nil)
	_ Layer = (*Conv2D[float32])(nil)
)

// convConfig collects the option-settable construction knobs. Options mutate
// this dtype-independent struct rather than the generic layer, so one ConvOpt
// value works for every instantiation width.
type convConfig struct {
	p       tensor.ConvParams
	useBias bool
}

// ConvOpt customizes a Conv2D at construction time.
type ConvOpt func(*convConfig)

// WithStride sets both spatial strides.
func WithStride(s int) ConvOpt {
	return func(c *convConfig) { c.p.StrideH, c.p.StrideW = s, s }
}

// WithPadding sets both spatial paddings.
func WithPadding(p int) ConvOpt {
	return func(c *convConfig) { c.p.PadH, c.p.PadW = p, p }
}

// WithoutBias disables the additive bias, the norm for conv layers followed
// by batch normalization.
func WithoutBias() ConvOpt {
	return func(c *convConfig) { c.useBias = false }
}

// NewConv2D constructs a float64 convolution with a square kernel and
// He-normal weight initialization. Stride defaults to 1 and padding to 0.
func NewConv2D(rng *rand.Rand, inC, outC, kernel int, opts ...ConvOpt) *Conv2D[float64] {
	return newConv2DOf[float64](rng, inC, outC, kernel, opts...)
}

func newConv2DOf[E tensor.Elem](rng *rand.Rand, inC, outC, kernel int, opts ...ConvOpt) *Conv2D[E] {
	cfg := convConfig{
		useBias: true,
		p: tensor.ConvParams{
			KernelH: kernel, KernelW: kernel,
			StrideH: 1, StrideW: 1,
		},
	}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Conv2D[E]{
		inC:     inC,
		outC:    outC,
		useBias: cfg.useBias,
		p:       cfg.p,
	}
	k := inC * kernel * kernel
	c.weight = newParamOf[E]("weight", outC, k)
	c.weight.Value.KaimingNormal(rng, k)
	if c.useBias {
		c.bias = newParamOf[E]("bias", outC)
	}
	return c
}

// Forward implements Layer. The im2col matrix and the pre-reorder product
// are drawn from the scratch arena: the former is retained (Backward
// consumes then releases it), the latter is returned before Forward exits;
// the NCHW output is a step buffer.
func (c *Conv2D[E]) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	dt := tensor.DTypeOf[E]()
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.p.OutSize(h, w)
	spatial := n * oh * ow
	// An eval-only Forward chain never runs Backward; recycle the previous
	// call's im2col matrix instead of leaking it from the arena.
	if c.lastCols != nil {
		tensor.PutScratch(c.lastCols)
	}
	cols := tensor.GetScratchOf(dt, c.inC*c.p.KernelH*c.p.KernelW, spatial)
	tensor.Im2ColInto(cols, x, c.p)
	c.lastCols = cols
	c.lastN, c.lastH, c.lastW, c.lastOH, c.lastOW = n, h, w, oh, ow

	y := tensor.GetScratchOf(dt, c.outC, spatial) // (outC, N*OH*OW)
	tensor.MatMulInto(y, c.weight.Value, cols)
	// Reorder (outC, N, OH, OW) → (N, outC, OH, OW), adding the bias on the way.
	c.out = stepScratch(c.out, dt, n, c.outC, oh, ow)
	od, yd := tensor.DataOf[E](c.out), tensor.DataOf[E](y)
	plane := oh * ow
	var bd []E
	if c.useBias {
		bd = tensor.DataOf[E](c.bias.Value)
	}
	for oc := 0; oc < c.outC; oc++ {
		for ni := 0; ni < n; ni++ {
			src := yd[(oc*n+ni)*plane : (oc*n+ni+1)*plane]
			dst := od[(ni*c.outC+oc)*plane : (ni*c.outC+oc+1)*plane]
			if bd == nil {
				copy(dst, src)
				continue
			}
			b := bd[oc]
			for i, v := range src {
				dst[i] = v + b
			}
		}
	}
	tensor.PutScratch(y)
	return c.out
}

// Backward implements Layer. All intermediates (the reordered gradient, the
// column gradient, and the retained im2col matrix) live in the scratch
// arena; the returned input gradient is a step buffer.
func (c *Conv2D[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dt := tensor.DTypeOf[E]()
	n, oh, ow := c.lastN, c.lastOH, c.lastOW
	plane := oh * ow
	spatial := n * plane
	// Reorder grad (N, outC, OH, OW) → (outC, N*OH*OW).
	g := tensor.GetScratchOf(dt, c.outC, spatial)
	gd, srcd := tensor.DataOf[E](g), tensor.DataOf[E](grad)
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.outC; oc++ {
			src := srcd[(ni*c.outC+oc)*plane : (ni*c.outC+oc+1)*plane]
			dst := gd[(oc*n+ni)*plane : (oc*n+ni+1)*plane]
			copy(dst, src)
		}
	}
	// dW += g × colsᵀ; cols is (K, spatial) so use the TransB accumulator.
	tensor.MatMulTransBAcc(c.weight.Grad, g, c.lastCols)
	// The cached im2col matrix is the layer's dominant memory holding
	// (K × N·OH·OW floats); release it as soon as backward has consumed it
	// so deep models do not retain every layer's unrolled activations
	// simultaneously between iterations.
	putScratch(&c.lastCols)
	if c.useBias {
		// The bias gradient sums N*OH*OW terms per channel: widen to a
		// float64 accumulator and round once into the stored gradient.
		bd := tensor.DataOf[E](c.bias.Grad)
		for oc := 0; oc < c.outC; oc++ {
			row := gd[oc*spatial : (oc+1)*spatial]
			s := 0.0
			for _, v := range row {
				s += toF64(v)
			}
			bd[oc] += roundE[E](s)
		}
	}
	if c.noInputGrad {
		tensor.PutScratch(g)
		return nil
	}
	// dCols = Wᵀ × g, W stored (outC, K): MatMulTransA.
	dCols := tensor.GetScratchOf(dt, c.inC*c.p.KernelH*c.p.KernelW, spatial)
	tensor.MatMulTransAInto(dCols, c.weight.Value, g)
	tensor.PutScratch(g)
	c.dx = stepScratch(c.dx, dt, n, c.inC, c.lastH, c.lastW)
	tensor.Col2ImInto(c.dx, dCols, c.p)
	tensor.PutScratch(dCols)
	return c.dx
}

func (c *Conv2D[E]) skipInputGrad() { c.noInputGrad = true }

func (c *Conv2D[E]) releaseScratch() {
	putScratch(&c.lastCols)
	putScratch(&c.out)
	putScratch(&c.dx)
}

// Params implements Layer.
func (c *Conv2D[E]) Params() []*Param {
	if c.useBias {
		return []*Param{c.weight, c.bias}
	}
	return []*Param{c.weight}
}
