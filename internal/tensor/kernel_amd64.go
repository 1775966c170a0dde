//go:build amd64 && !purego

package tensor

// Assembly micro-kernels (kernel_amd64.s). Both take raw pointers and element
// strides; k may be 0. They read A at a[r*ars+p*acs] (r < 4, p < k), B at
// b[p*ldb .. p*ldb+W) and read/write C at c[r*ldc .. r*ldc+W), W = 8 / 16 —
// nothing else. The wrappers below are the only callers.

//go:noescape
func kernel4x8F64(c *float64, ldc int, a *float64, ars, acs int, b *float64, ldb, k, mode int)

//go:noescape
func kernel4x16F32(c *float32, ldc int, a *float32, ars, acs int, b *float32, ldb, k, mode int)

// Element-wise heads (contract: vec.go). Each works the leading len(dst)&^15
// elements, 32 bytes a step with unaligned loads and stores, and returns that
// count; the other operands are at least as long as dst.

//go:noescape
func vecAddTo(dst, src []float64) int

//go:noescape
func vecAddPair(dst, a, b []float64) int

//go:noescape
func vecAddPairTo(dst, a, b []float64) int

//go:noescape
func vecScale(dst []float64, s float64) int

// The float64↔float32 kernels (contract: vec.go): the mask of one 64-value
// word, and the convert heads, which work the leading multiple of 16 values,
// dst and src sized for each other by the wrappers.

//go:noescape
func vecMaskWord(c *[64]float64) uint64

//go:noescape
func vecNarrowLE(dst []byte, src []float64) int

//go:noescape
func vecWidenLE(dst []float64, src []byte) int

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// state across context switches (the two halves of "AVX2 is usable").
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// The assembly replaces the Go tile when the CPU can run it.
func init() {
	if hasAVX2() {
		tile64, tile32, tileImpl = avx2Tile64, avx2Tile32, "avx2"
		headAddTo, headAddPair, headAddPairTo, headScale = vecAddTo, vecAddPair, vecAddPairTo, vecScale
		maskWord, headNarrowLE, headWidenLE = vecMaskWord, vecNarrowLE, vecWidenLE
	}
}

// avx2Tile64 touches the far corner of each operand in Go — so a shape the
// driver got wrong panics here with an index error instead of the assembly
// reading or writing past a slice — and enters the kernel. k >= 1: the driver
// settles an empty inner dimension itself.
func avx2Tile64(c []float64, ldc int, a []float64, ars, acs int, b []float64, ldb, k int, mode tileMode) {
	_ = c[3*ldc+7]
	_ = a[3*ars+(k-1)*acs]
	_ = b[(k-1)*ldb+7]
	kernel4x8F64(&c[0], ldc, &a[0], ars, acs, &b[0], ldb, k, int(mode))
}

func avx2Tile32(c []float32, ldc int, a []float32, ars, acs int, b []float32, ldb, k int, mode tileMode) {
	_ = c[3*ldc+15]
	_ = a[3*ars+(k-1)*acs]
	_ = b[(k-1)*ldb+15]
	kernel4x16F32(&c[0], ldc, &a[0], ars, acs, &b[0], ldb, k, int(mode))
}
