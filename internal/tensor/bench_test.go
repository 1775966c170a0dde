package tensor

import (
	"math/rand"
	"testing"
)

// reportGFLOPs reports a benchmark's arithmetic rate, flops per op over the
// time per op, as GFLOP/s; call it after the timed loop. A product of
// m×k by k×n is 2·m·k·n flops, a multiply and an add per term.
func reportGFLOPs(b *testing.B, flops float64) {
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchMatMul times C = A × B for square n×n operands and reports GFLOP/s.
// Run with -benchmem: the kernel itself must not allocate beyond the output
// tensor.
func benchMatMul(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	a := New(n, n)
	a.RandNormal(rng, 0, 1)
	bb := New(n, n)
	bb.RandNormal(rng, 0, 1)
	c := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(c, a, bb)
	}
	reportGFLOPs(b, 2*float64(n*n*n))
}

func BenchmarkMatMul64(b *testing.B)  { benchMatMul(b, 64) }
func BenchmarkMatMul256(b *testing.B) { benchMatMul(b, 256) }
func BenchmarkMatMul512(b *testing.B) { benchMatMul(b, 512) }

func benchMatMulTrans(b *testing.B, n int, f func(a, b *Tensor) *Tensor) {
	rng := rand.New(rand.NewSource(1))
	a := New(n, n)
	a.RandNormal(rng, 0, 1)
	bb := New(n, n)
	bb.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, bb)
	}
	reportGFLOPs(b, 2*float64(n*n*n))
}

func BenchmarkMatMulTransA256(b *testing.B) { benchMatMulTrans(b, 256, MatMulTransA) }
func BenchmarkMatMulTransB256(b *testing.B) { benchMatMulTrans(b, 256, MatMulTransB) }

// convShape is a convolution the conv benchmarks time at batch 8: c input
// channels of an h×h plane to outC output channels, a kh×kh kernel at
// stride 1 and padding pad.
type convShape struct{ c, h, outC, kh, pad int }

var (
	// cifarConv is a CIFAR-like mid-network layer, 16 channels of 16×16 at
	// 3×3/pad 1.
	cifarConv = convShape{16, 16, 16, 3, 1}
	// paperConv1 and paperConv2 are sim_cnn's layers, the paper's CNN at
	// Scale 4 on 28×28 images: 1→8 channels at 5×5 (K = 25, 24-wide output
	// rows) and 8→16 at 5×5 on 12×12 (K = 200, 8-wide rows).
	paperConv1 = convShape{1, 28, 8, 5, 0}
	paperConv2 = convShape{8, 12, 16, 5, 0}
)

// benchConv times one of a convolution's three products, the input already
// padded as the layer pads it, and reports GFLOP/s: each product is 2·K
// flops per output element, K = C·KH·KW, counted over y's elements — the
// forward's output, and equally many terms for either gradient.
func benchConv(b *testing.B, sh convShape, product string) {
	rng := rand.New(rand.NewSource(1))
	p := ConvParams{KernelH: sh.kh, KernelW: sh.kh, StrideH: 1, StrideW: 1, PadH: sh.pad, PadW: sh.pad}
	pl := NewConvPlan(sh.c, sh.h, sh.h, sh.outC, p)
	oh, _ := p.OutSize(sh.h, sh.h)
	hp := sh.h + 2*sh.pad
	x, src := New(8, sh.c, sh.h, sh.h), New(8, sh.c, hp, hp)
	x.RandNormal(rng, 0, 1)
	PadInto(src, x, sh.pad, sh.pad)
	k := sh.c * sh.kh * sh.kh
	w, dw := New(sh.outC, k), New(sh.outC, k)
	w.RandNormal(rng, 0, 1)
	y, g := New(8, sh.outC, oh, oh), New(8, sh.outC, oh, oh)
	g.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch product {
		case "forward":
			pl.Forward(y, src, w, nil)
		case "weight":
			pl.WeightGrad(dw, src, g)
		case "input":
			pl.InputGrad(x, w, g)
		}
	}
	reportGFLOPs(b, 2*float64(y.Len()*k))
}

func BenchmarkConvForward(b *testing.B)    { benchConv(b, cifarConv, "forward") }
func BenchmarkConvWeightGrad(b *testing.B) { benchConv(b, cifarConv, "weight") }
func BenchmarkConvInputGrad(b *testing.B)  { benchConv(b, cifarConv, "input") }

// The paper CNN's first layer computes no input gradient (nn.Conv2D's
// noInputGrad), so conv1 has no InputGrad benchmark.
func BenchmarkPaperConv1Forward(b *testing.B)    { benchConv(b, paperConv1, "forward") }
func BenchmarkPaperConv1WeightGrad(b *testing.B) { benchConv(b, paperConv1, "weight") }
func BenchmarkPaperConv2Forward(b *testing.B)    { benchConv(b, paperConv2, "forward") }
func BenchmarkPaperConv2WeightGrad(b *testing.B) { benchConv(b, paperConv2, "weight") }
func BenchmarkPaperConv2InputGrad(b *testing.B)  { benchConv(b, paperConv2, "input") }
