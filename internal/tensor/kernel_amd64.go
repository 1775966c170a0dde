//go:build amd64 && !purego

package tensor

// Assembly micro-kernels (kernel_amd64.s): the AVX2 tile in YMM registers
// and the AVX-512 tile in ZMM registers. Both take raw pointers; k may be 0.
// They read A at a[arow[r]+acol[p]] (r < 4, p < k), B at
// b[boff[p] .. boff[p]+8) and read/write C at c[r*ldc .. r*ldc+8) — nothing
// else. The wrappers below are the only callers.

//go:noescape
func kernel4x8F64(c *float64, ldc int, a *float64, arow, acol *int, b *float64, boff *int, k, mode int)

//go:noescape
func kernel4x8F64ZMM(c *float64, ldc int, a *float64, arow, acol *int, b *float64, boff *int, k, mode int)

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

// The SGD heads (contract: vec.go, SGDUpdate), over the leading len(v)&^15
// elements, g at least as long as v.

//go:noescape
func vecSGD(v, g []float64, lr float64) int

//go:noescape
func vecSGDDecay(v, g []float64, lr, wd float64) int

// The row-add head (contract: vec.go); avx2AddRows is its only caller.
//
//go:noescape
func vecAddRows(dst, src []float64, rows, n, dstep, sstep int) int

// The ReLU heads (contract: vec.go), over the same leading len(dst)&^15
// elements, the other operands at least as long as dst.

//go:noescape
func vecReLU(dst, x []float64) int

//go:noescape
func vecReLUGate(dst, g, y []float64) int

// The 2×2/2 max-pool head (contract: vec.go): r0 and r1 hold at least
// 2·len(od) values, argmax at least len(od).
//
//go:noescape
func vecMaxPool2x2(od []float64, argmax []int, r0, r1 []float64, top, w int) int

// The 2×2/2 max-pool backward head (contract: vec.go): g and argmax hold at
// least rows·ow values, dd at least 2w·rows, and ow ≤ w/2.
//
//go:noescape
func vecMaxPool2x2Back(g []float64, argmax []int, dd []float64, top, w, ow, rows int) int

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

// The bits cpuLanes reads: leaf 1's ECX (OSXSAVE, AVX), leaf 7's EBX (AVX2,
// AVX512F), and XCR0's state masks — XMM and YMM for AVX2, and for AVX-512
// also the opmask registers, the upper halves of ZMM0–15 and ZMM16–31.
const (
	cpuOSXSAVE, cpuAVX  = 1 << 27, 1 << 28
	cpuAVX2, cpuAVX512F = 1 << 5, 1 << 16
	xcr0YMM, xcr0ZMM    = 0x06, 0xE6
)

// cpuLanes says which assembly lanes a CPU can run, from CPUID leaf 0's EAX
// (the highest leaf), leaf 1's ECX, leaf 7's EBX and XCR0. A lane is usable
// when the CPU implements its instructions and the OS saves its register
// state across context switches: AVX2 needs OSXSAVE, AVX and the XMM and YMM
// state; AVX-512 needs AVX2, AVX512F and the opmask and ZMM state too.
func cpuLanes(maxLeaf, ecx1, ebx7, xcr0 uint32) (avx2, avx512 bool) {
	if maxLeaf < 7 || ecx1&cpuOSXSAVE == 0 || ecx1&cpuAVX == 0 {
		return false, false
	}
	avx2 = xcr0&xcr0YMM == xcr0YMM && ebx7&cpuAVX2 != 0
	avx512 = avx2 && xcr0&xcr0ZMM == xcr0ZMM && ebx7&cpuAVX512F != 0
	return avx2, avx512
}

// hostLanes is cpuLanes of this CPU. XGETBV faults unless the OS set
// OSXSAVE, so XCR0 reads as 0 without it.
func hostLanes() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	var ecx1, ebx7, xcr0 uint32
	if maxLeaf >= 7 {
		_, _, ecx1, _ = cpuid(1, 0)
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&cpuOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	return cpuLanes(maxLeaf, ecx1, ebx7, xcr0)
}

// The assembly replaces the Go code when the CPU can run it: the AVX2 heads
// and tile, then the AVX-512 tile over the AVX2 one.
func init() {
	avx2, avx512 := hostLanes()
	if avx2 {
		microTile, tileImpl = avx2Tile, "avx2"
		headAddTo, headAddPair, headAddPairTo, headScale = vecAddTo, vecAddPair, vecAddPairTo, vecScale
		maskWord, headNarrowLE, headWidenLE = vecMaskWord, vecNarrowLE, vecWidenLE
		headReLU, headReLUGate, headMaxPool2x2 = vecReLU, vecReLUGate, vecMaxPool2x2
		headSGD, headSGDDecay, headAddRows, headMaxPool2x2Back = vecSGD, vecSGDDecay, avx2AddRows, vecMaxPool2x2Back
	}
	if avx512 {
		microTile, tileImpl = avx512Tile, "avx512"
	}
}

// avx2AddRows touches the last element of each operand's last row in Go, as
// avx2Tile does its corners, and enters the row-add head.
func avx2AddRows(dst, src []float64, rows, n, dstep, sstep int) int {
	if rows < 1 || n < 4 {
		return 0
	}
	_ = dst[(rows-1)*dstep+n-1]
	_ = src[(rows-1)*sstep+n-1]
	return vecAddRows(dst, src, rows, n, dstep, sstep)
}

// The tile wrappers touch the far corner of each operand in Go — so a call
// the driver got wrong panics here with an index error instead of the
// assembly reading or writing past a slice — and enter the kernel. Every
// driver builds non-decreasing, non-negative tables, so the corners are the
// last entries; a caller with other tables (the kernel tests) keeps every
// offset in range itself. k >= 1: the driver settles an empty inner
// dimension.
func avx2Tile(c []float64, ldc int, a []float64, arow, acol []int, b []float64, boff []int, k int, mode tileMode) {
	_ = c[3*ldc+7]
	_ = a[arow[3]+acol[k-1]]
	_ = b[boff[k-1]+7]
	kernel4x8F64(&c[0], ldc, &a[0], &arow[0], &acol[0], &b[0], &boff[0], k, int(mode))
}

func avx512Tile(c []float64, ldc int, a []float64, arow, acol []int, b []float64, boff []int, k int, mode tileMode) {
	_ = c[3*ldc+7]
	_ = a[arow[3]+acol[k-1]]
	_ = b[boff[k-1]+7]
	kernel4x8F64ZMM(&c[0], ldc, &a[0], &arow[0], &acol[0], &b[0], &boff[0], k, int(mode))
}
