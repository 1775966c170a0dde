package tensor

import (
	"encoding/binary"
	"math"
)

// Element-wise float64 kernels (contract: DESIGN §5c, "Element-wise
// kernels"): every lane is the one IEEE operation of the Go statement in the
// function's tail loop, operands in that order — when both are NaN, x86
// returns the first one's payload — so the assembly, the Go loops and any
// split between them give the same bits. Operands are cut to len(dst).

// The assembly heads: each works a leading multiple of 16 elements and
// returns its length. Zero here; kernel_amd64.go installs the AVX2 ones
// (amd64 && !purego). Nothing else but a test reassigns them.
var (
	headAddTo     = func(dst, src []float64) int { return 0 }
	headAddPair   = func(dst, a, b []float64) int { return 0 }
	headAddPairTo = func(dst, a, b []float64) int { return 0 }
	headScale     = func(dst []float64, s float64) int { return 0 }
)

// AddTo sets dst[i] = dst[i] + src[i].
func AddTo(dst, src []float64) {
	src = src[:len(dst)]
	for i := headAddTo(dst, src); i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// AddPair sets dst[i] = a[i] + b[i]; dst may be a or b itself.
func AddPair(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := headAddPair(dst, a, b); i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// AddPairTo sets dst[i] = dst[i] + (a[i] + b[i]): AddPair into a temporary,
// then AddTo, in one pass.
func AddPairTo(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	// The pair sum goes through memory: the compiler would otherwise keep it
	// in the register and make it the second add's first operand.
	var t [64]float64
	for i := headAddPairTo(dst, a, b); i < len(dst); i += len(t) {
		d := dst[i:min(i+len(t), len(dst))]
		for j := range d {
			t[j] = a[i+j] + b[i+j]
		}
		for j := range d {
			d[j] += t[j]
		}
	}
}

// Scale sets dst[i] = dst[i] * s.
func Scale(dst []float64, s float64) {
	for i := headScale(dst, s); i < len(dst); i++ {
		dst[i] *= s
	}
}

// The float64↔float32 members (the default wire's conversions; contract:
// DESIGN §5c, "Element-wise kernels"). The packed converts round the way the
// scalar ones do — the same MXCSR nearest-even, NaNs quieted with the payload
// cut or padded, overflow to ±Inf, subnormals kept — so a lane's bits do not
// depend on who converted it. The convert heads work a leading multiple of 16
// values; maskWord is replaced whole, as the matmul tile is.
var (
	maskWord     = goMaskWord
	headNarrowLE = func(dst []byte, src []float64) int { return 0 }
	headWidenLE  = func(dst []float64, src []byte) int { return 0 }
)

// NonzeroMask packs the != 0 tests of c into a word, bit j for c[j]: a NaN is
// nonzero, ±0 is zero.
func NonzeroMask(c *[64]float64) uint64 { return maskWord(c) }

// nonzeroBit is 1 for v != 0 and 0 for ±0, without a branch: shifting the
// sign out leaves zero for exactly ±0 (a NaN is nonzero, as under !=).
func nonzeroBit(v float64) uint64 {
	x := math.Float64bits(v) << 1
	return (x | -x) >> 63
}

// goMaskWord builds the word in two halves, so their shift-or chains overlap.
func goMaskWord(c *[64]float64) uint64 {
	var lo, hi uint64
	for j, v := range c[:32] {
		lo = lo>>1 | nonzeroBit(v)<<63
		hi = hi>>1 | nonzeroBit(c[32+j])<<63
	}
	return lo>>32 | hi
}

// NarrowLE stores float32(src[i]) at dst[4i:4i+4], little-endian.
func NarrowLE(dst []byte, src []float64) {
	dst = dst[:4*len(src)]
	for i := headNarrowLE(dst, src); i < len(src); i++ {
		//lint:allow precision -- narrowing is this kernel's contract (the base wire format stores f32)
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(src[i])))
	}
}

// WidenLE sets dst[i] to the little-endian float32 at src[4i:4i+4], widened.
func WidenLE(dst []float64, src []byte) {
	src = src[:4*len(dst)]
	for i := headWidenLE(dst, src); i < len(dst); i++ {
		//lint:allow precision -- widening the f32 wire value back to f64, exact
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
}
