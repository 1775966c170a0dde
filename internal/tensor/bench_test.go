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

// benchIm2Col unrolls a CIFAR-like batch: 8×16×16×16 NCHW input with a
// 3×3/pad-1 kernel, the geometry the conv layers hit hardest.
func benchIm2Col(b *testing.B, dt DType) {
	rng := rand.New(rand.NewSource(1))
	x := NewOf(dt, 8, 16, 16, 16)
	x.RandNormal(rng, 0, 1)
	p := ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols := Im2Col(x, p)
		_ = cols
	}
}

func BenchmarkIm2Col(b *testing.B)    { benchIm2Col(b, Float64) }
func BenchmarkIm2ColF32(b *testing.B) { benchIm2Col(b, Float32) }

// benchCol2Im times the adjoint on the same geometry.
func benchCol2Im(b *testing.B, dt DType) {
	rng := rand.New(rand.NewSource(1))
	x := NewOf(dt, 8, 16, 16, 16)
	x.RandNormal(rng, 0, 1)
	p := ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cols := Im2Col(x, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Col2Im(cols, 8, 16, 16, 16, p)
		_ = out
	}
}

func BenchmarkCol2Im(b *testing.B)    { benchCol2Im(b, Float64) }
func BenchmarkCol2ImF32(b *testing.B) { benchCol2Im(b, Float32) }
