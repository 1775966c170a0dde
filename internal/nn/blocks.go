package nn

import (
	"math/rand"

	"fedsu/internal/tensor"
)

// ResidualBlock is the ResNet basic block: conv3x3-BN-ReLU-conv3x3-BN plus
// an identity (or 1x1-conv projection) shortcut, followed by ReLU.
type ResidualBlock struct {
	body     *Sequential
	shortcut Layer // nil means identity
	relu     *ReLU

	lastX *tensor.Tensor
}

var _ Layer = (*ResidualBlock)(nil)

// NewResidualBlock constructs a basic residual block mapping inC
// channels to outC channels with the given stride on the first convolution.
// When the shapes differ a projection shortcut (1x1 conv + BN) is inserted.
func NewResidualBlock(rng *rand.Rand, inC, outC, stride int) *ResidualBlock {
	b := &ResidualBlock{
		body: NewSequential(
			NewConv2D(rng, inC, outC, 3, WithStride(stride), WithPadding(1), WithoutBias()),
			NewBatchNorm2D(outC),
			NewReLU(),
			NewConv2D(rng, outC, outC, 3, WithPadding(1), WithoutBias()),
			NewBatchNorm2D(outC),
		),
		relu: NewReLU(),
	}
	if stride != 1 || inC != outC {
		b.shortcut = NewSequential(
			NewConv2D(rng, inC, outC, 1, WithStride(stride), WithoutBias()),
			NewBatchNorm2D(outC),
		)
	}
	return b
}

// Forward implements Layer.
func (b *ResidualBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b.lastX = x
	y := b.body.Forward(x, train)
	var sc *tensor.Tensor
	if b.shortcut != nil {
		sc = b.shortcut.Forward(x, train)
	} else {
		sc = x
	}
	y.Add(sc)
	return b.relu.Forward(y, train)
}

// Backward implements Layer.
func (b *ResidualBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := b.relu.Backward(grad)
	dx := b.body.Backward(g)
	if b.shortcut != nil {
		dx.Add(b.shortcut.Backward(g))
	} else {
		dx.Add(g)
	}
	return dx
}

func (b *ResidualBlock) releaseScratch() {
	b.lastX = nil
	b.body.releaseScratch()
	if b.shortcut != nil {
		releaseScratchOf(b.shortcut)
	}
	b.relu.releaseScratch()
}

// Params implements Layer.
func (b *ResidualBlock) Params() []*Param {
	ps := b.body.Params()
	if b.shortcut != nil {
		ps = append(ps, b.shortcut.Params()...)
	}
	return ps
}

// denseLayer is one BN-ReLU-conv3x3 unit inside a DenseBlock, producing
// growth-rate new channels from all previously accumulated channels.
type denseLayer struct {
	bn   *BatchNorm2D
	relu *ReLU
	conv *Conv2D
}

func newDenseLayer(rng *rand.Rand, inC, growth int) *denseLayer {
	return &denseLayer{
		bn:   NewBatchNorm2D(inC),
		relu: NewReLU(),
		conv: NewConv2D(rng, inC, growth, 3, WithPadding(1), WithoutBias()),
	}
}

func (d *denseLayer) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return d.conv.Forward(d.relu.Forward(d.bn.Forward(x, train), train), train)
}

func (d *denseLayer) backward(grad *tensor.Tensor) *tensor.Tensor {
	return d.bn.Backward(d.relu.Backward(d.conv.Backward(grad)))
}

func (d *denseLayer) params() []*Param {
	ps := d.bn.Params()
	return append(ps, d.conv.Params()...)
}

// DenseBlock is the DenseNet building block: a chain of BN-ReLU-conv layers
// where each layer's input is the channel-wise concatenation of the block
// input and every earlier layer's output.
type DenseBlock struct {
	layers []*denseLayer
	inC    int
	growth int

	lastInputs []*tensor.Tensor // concatenated input to each layer
}

var _ Layer = (*DenseBlock)(nil)

// NewDenseBlock constructs a dense block with the given number of
// layers and growth rate over inC input channels.
func NewDenseBlock(rng *rand.Rand, inC, growth, layers int) *DenseBlock {
	b := &DenseBlock{inC: inC, growth: growth}
	c := inC
	for i := 0; i < layers; i++ {
		b.layers = append(b.layers, newDenseLayer(rng, c, growth))
		c += growth
	}
	return b
}

// OutChannels returns the channel count of the block output.
func (b *DenseBlock) OutChannels() int { return b.inC + b.growth*len(b.layers) }

// concatChannels concatenates NCHW tensors along the channel axis.
func concatChannels(a, bt *tensor.Tensor) *tensor.Tensor {
	n, ca, h, w := a.Dim(0), a.Dim(1), a.Dim(2), a.Dim(3)
	cb := bt.Dim(1)
	out := tensor.New(n, ca+cb, h, w)
	plane := h * w
	ad, bd, od := a.Data(), bt.Data(), out.Data()
	for ni := 0; ni < n; ni++ {
		copy(od[ni*(ca+cb)*plane:], ad[ni*ca*plane:(ni+1)*ca*plane])
		copy(od[(ni*(ca+cb)+ca)*plane:], bd[ni*cb*plane:(ni+1)*cb*plane])
	}
	return out
}

// splitChannels splits grad (N, ca+cb, H, W) into its first-ca and last-cb
// channel slabs, the adjoint of concatChannels.
func splitChannels(g *tensor.Tensor, ca int) (ga, gb *tensor.Tensor) {
	n, c, h, w := g.Dim(0), g.Dim(1), g.Dim(2), g.Dim(3)
	cb := c - ca
	ga = tensor.New(n, ca, h, w)
	gb = tensor.New(n, cb, h, w)
	plane := h * w
	gd, ad, bd := g.Data(), ga.Data(), gb.Data()
	for ni := 0; ni < n; ni++ {
		copy(ad[ni*ca*plane:(ni+1)*ca*plane], gd[ni*c*plane:])
		copy(bd[ni*cb*plane:(ni+1)*cb*plane], gd[(ni*c+ca)*plane:])
	}
	return ga, gb
}

// Forward implements Layer.
func (b *DenseBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b.lastInputs = b.lastInputs[:0]
	cur := x
	for _, l := range b.layers {
		b.lastInputs = append(b.lastInputs, cur)
		out := l.forward(cur, train)
		cur = concatChannels(cur, out)
	}
	return cur
}

// Backward implements Layer.
func (b *DenseBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(b.layers) - 1; i >= 0; i-- {
		in := b.lastInputs[i]
		b.lastInputs[i] = nil // release as consumed (memory dominates deep blocks)
		gIn, gNew := splitChannels(grad, in.Dim(1))
		gIn.Add(b.layers[i].backward(gNew))
		grad = gIn
	}
	return grad
}

func (b *DenseBlock) releaseScratch() {
	clear(b.lastInputs) // after a forward-only pass they still name the layers' buffers
	for _, l := range b.layers {
		l.relu.releaseScratch()
		l.conv.releaseScratch()
	}
}

// Params implements Layer.
func (b *DenseBlock) Params() []*Param {
	var ps []*Param
	for _, l := range b.layers {
		ps = append(ps, l.params()...)
	}
	return ps
}
