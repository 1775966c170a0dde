package tensor

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
