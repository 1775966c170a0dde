package tensor

import (
	"math/rand"
	"testing"
)

// benchMatMul times C = A × B for square n×n operands at the given storage
// width. Run with -benchmem: the kernel itself must not allocate beyond the
// output tensor. The F32 variants are the float32 compute path's headline
// numbers: same FLOP count, half the bytes moved per operand.
func benchMatMul(b *testing.B, dt DType, n int) {
	rng := rand.New(rand.NewSource(1))
	a := NewOf(dt, n, n)
	a.RandNormal(rng, 0, 1)
	bb := NewOf(dt, n, n)
	bb.RandNormal(rng, 0, 1)
	c := NewOf(dt, n, n)
	b.SetBytes(int64(dt.Bytes() * n * n * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(c, a, bb)
	}
}

func BenchmarkMatMul64(b *testing.B)     { benchMatMul(b, Float64, 64) }
func BenchmarkMatMul256(b *testing.B)    { benchMatMul(b, Float64, 256) }
func BenchmarkMatMul512(b *testing.B)    { benchMatMul(b, Float64, 512) }
func BenchmarkMatMul64F32(b *testing.B)  { benchMatMul(b, Float32, 64) }
func BenchmarkMatMul256F32(b *testing.B) { benchMatMul(b, Float32, 256) }
func BenchmarkMatMul512F32(b *testing.B) { benchMatMul(b, Float32, 512) }

func benchMatMulTrans(b *testing.B, dt DType, n int, f func(a, b *Tensor) *Tensor) {
	rng := rand.New(rand.NewSource(1))
	a := NewOf(dt, n, n)
	a.RandNormal(rng, 0, 1)
	bb := NewOf(dt, n, n)
	bb.RandNormal(rng, 0, 1)
	b.SetBytes(int64(dt.Bytes() * n * n * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, bb)
	}
}

func BenchmarkMatMulTransA256(b *testing.B)    { benchMatMulTrans(b, Float64, 256, MatMulTransA) }
func BenchmarkMatMulTransB256(b *testing.B)    { benchMatMulTrans(b, Float64, 256, MatMulTransB) }
func BenchmarkMatMulTransA256F32(b *testing.B) { benchMatMulTrans(b, Float32, 256, MatMulTransA) }
func BenchmarkMatMulTransB256F32(b *testing.B) { benchMatMulTrans(b, Float32, 256, MatMulTransB) }

// benchConv times one of a convolution's three products on a CIFAR-like
// batch: 8×16×16×16 NCHW input, 3×3/pad-1 kernel, 16 output channels, the
// input already padded as the layer pads it.
func benchConv(b *testing.B, dt DType, product string) {
	rng := rand.New(rand.NewSource(1))
	p := ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	pl := NewConvPlan(dt, 16, 16, 16, 16, p)
	x, src := NewOf(dt, 8, 16, 16, 16), NewOf(dt, 8, 16, 18, 18)
	x.RandNormal(rng, 0, 1)
	PadInto(src, x, 1, 1)
	w, dw := NewOf(dt, 16, 16*9), NewOf(dt, 16, 16*9)
	w.RandNormal(rng, 0, 1)
	y, g := NewOf(dt, 8, 16, 16, 16), NewOf(dt, 8, 16, 16, 16)
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
}

func BenchmarkConvForward(b *testing.B)       { benchConv(b, Float64, "forward") }
func BenchmarkConvForwardF32(b *testing.B)    { benchConv(b, Float32, "forward") }
func BenchmarkConvWeightGrad(b *testing.B)    { benchConv(b, Float64, "weight") }
func BenchmarkConvWeightGradF32(b *testing.B) { benchConv(b, Float32, "weight") }
func BenchmarkConvInputGrad(b *testing.B)     { benchConv(b, Float64, "input") }
func BenchmarkConvInputGradF32(b *testing.B)  { benchConv(b, Float32, "input") }
