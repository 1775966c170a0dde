package tensor

import (
	"fmt"

	"fedsu/internal/par"
)

// Every matrix product in this package is one driver over one register-tile
// micro-kernel. The kernel's contract (tileFunc) is
//
//	C[4×W] (= | +=) Σ_p A[i·ars + p·acs] · B[p·ldb + j … j+W)
//
// with W = 8 at float64 and 16 at float32: vector lanes are different output
// columns, so each lane carries one element's private sum; every p step is a
// separate multiply then a separate add (never a fused multiply-add, whose
// single rounding would change bits), taken in p = 0..k-1 order; and the
// accumulators start from zero or from C. Each output element is therefore
// the same ordered sum of rounded products the scalar code computes, and
// there are exactly two implementations of the contract: Go assembly for
// amd64 with AVX2 (kernel_amd64.s) and goTile below, which is also what the
// driver's fringe runs on. They agree bit for bit (microkernel_test.go, which
// also holds them against the scalar kernels this design retired).
//
// The three products are the same kernel under different strides:
//
//   - A × B reads row-major B in place (ars = k, acs = 1): nothing is packed.
//   - Aᵀ × B is the same call with ars = 1, acs = m.
//   - A × Bᵀ has no row-major right operand, so it transposes the smaller of
//     its two operands into arena scratch; if that was A it computes the
//     transposed product Cᵀ = B × Aᵀ and folds it back.
//
// Three properties are load-bearing for the rest of the stack:
//
//   - Bit-determinism: an element's value depends on nothing but its own
//     ordered sum, so results are bitwise identical at every worker count,
//     tile decomposition and kernel implementation — at both precisions.
//   - No hidden allocation: the *Into and *Acc variants write caller-owned
//     storage, which the nn layers draw from the scratch arena.
//   - Accumulator width = storage width: each dot product sums k terms into
//     an E-typed lane (standard practice for f32 GEMM — per-element error is
//     O(√k)·ulp on random data, dominated by the f32 storage rounding
//     itself). O(n)-term statistics reductions elsewhere (loss, norms,
//     batchnorm moments) do widen to float64; see tensor.Sum and the nn
//     layer notes.
//
// Non-finite inputs propagate by IEEE rules: 0·Inf is NaN and reaches the
// output. Small products run serially so eval-scale tensors do not pay
// goroutine handoff; the cutoff is tunable for tests via SetParallelCutoff.

// tileRows is the micro-kernel's height in output rows; the row split hands
// workers whole tiles.
const tileRows = 4

// tileCols is the micro-kernel's width W in output columns: two 256-bit
// registers of E.
func tileCols[E Elem]() int {
	if dtypeOf[E]() == Float32 {
		return 16
	}
	return 8
}

// tileMode says where a tile's accumulators start and how they land in C.
// The values are shared with the assembly.
type tileMode int

const (
	tileStore tileMode = iota // C = Σ, summed from zero
	tileSeed                  // C = (…((C + t₀) + t₁)…): summed from C
	tileAddTo                 // C = C + Σ, Σ summed from zero
)

// tileFunc computes one full tileRows×tileCols tile: c, a and b are slices
// starting at the tile's first element of each operand, k >= 1.
type tileFunc[E Elem] func(c []E, ldc int, a []E, ars, acs int, b []E, ldb, k int, mode tileMode)

// tile64 and tile32 are the micro-kernels the driver calls: the Go tile,
// unless kernel_amd64.go's init found a CPU for the assembly (build tag
// amd64 && !purego). Nothing else but a test reassigns them; tileImpl names
// the choice for test logs.
var (
	tile64   tileFunc[float64] = goTile[float64]
	tile32   tileFunc[float32] = goTile[float32]
	tileImpl                   = "go"
)

// accSeedCutoff is the work size (multiply-adds) at which MatMulAcc changes
// rounding sequence; see MatMulAcc.
const accSeedCutoff = 1 << 15

// parallelCutoff is the minimum work size (multiply-adds for matmul,
// elements moved for im2col/col2im) that engages the worker pool.
var parallelCutoff int64 = 1 << 18

// SetParallelCutoff overrides the serial-fallback threshold and returns the
// previous value. It exists so tests can force tiny tensors through the
// parallel path; production code should leave the default.
func SetParallelCutoff(v int64) (prev int64) {
	prev = parallelCutoff
	parallelCutoff = v
	return prev
}

func parallelWorthwhile(work int64) bool {
	return par.Workers() > 1 && work >= parallelCutoff
}

// gemm is the one driver: C (m×n, row stride ldc) from A addressed as
// a[i*ars+p*acs] and row-major B (k×n, row stride ldb). Rows are split over
// the worker pool in whole tiles; any split gives the same bits.
func gemm[E Elem](tile tileFunc[E], c []E, ldc int, a []E, ars, acs int, b []E, ldb, m, k, n int, mode tileMode) {
	if k == 0 {
		if mode == tileStore {
			for i := 0; i < m; i++ {
				fillSlice(c[i*ldc:i*ldc+n], 0)
			}
		}
		return
	}
	if parallelWorthwhile(int64(m) * int64(k) * int64(n)) {
		par.ParallelizeGrain(m, tileRows, func(lo, hi int) {
			gemmRows(tile, c, ldc, a, ars, acs, b, ldb, lo, hi, k, n, mode)
		})
		return
	}
	gemmRows(tile, c, ldc, a, ars, acs, b, ldb, 0, m, k, n, mode)
}

// gemmRows computes output rows [lo, hi): full tiles through the
// micro-kernel, column strip by column strip so the k×W panel of B stays in
// cache while the row tiles pass over it, then the n mod W columns and the
// (hi-lo) mod 4 rows that are left through goBlock.
func gemmRows[E Elem](tile tileFunc[E], c []E, ldc int, a []E, ars, acs int, b []E, ldb, lo, hi, k, n int, mode tileMode) {
	w := tileCols[E]()
	full := lo + (hi-lo)/tileRows*tileRows
	nt := n - n%w
	for j := 0; j < nt; j += w {
		for i := lo; i < full; i += tileRows {
			tile(c[i*ldc+j:], ldc, a[i*ars:], ars, acs, b[j:], ldb, k, mode)
		}
	}
	if nt < n && lo < full {
		goBlock(c[lo*ldc+nt:], ldc, a[lo*ars:], ars, acs, b[nt:], ldb, full-lo, n-nt, k, mode)
	}
	if full < hi {
		goBlock(c[full*ldc:], ldc, a[full*ars:], ars, acs, b, ldb, hi-full, n, k, mode)
	}
}

// goTile is the micro-kernel in Go: the tile every build without the
// assembly runs on, and the reference the assembly is held to.
func goTile[E Elem](c []E, ldc int, a []E, ars, acs int, b []E, ldb, k int, mode tileMode) {
	goBlock(c, ldc, a, ars, acs, b, ldb, tileRows, tileCols[E](), k, mode)
}

// goBlock computes a rows×cols block by the micro-kernel's contract, a row
// at a time.
func goBlock[E Elem](c []E, ldc int, a []E, ars, acs int, b []E, ldb, rows, cols, k int, mode tileMode) {
	for i := 0; i < rows; i++ {
		goRow(c[i*ldc:i*ldc+cols], a[i*ars:], acs, b, ldb, k, mode)
	}
}

// goRow computes one output row, eight columns at a time: eight independent
// sums in registers hide the add latency, and their B values are one window
// of a row of B. The E(…) conversions round each product before it is added:
// on architectures where the compiler would otherwise fuse the pair, the
// language guarantees an explicit conversion is not fused through.
func goRow[E Elem](ci, a []E, acs int, b []E, ldb, k int, mode tileMode) {
	j := 0
	for ; j+8 <= len(ci); j += 8 {
		cj := ci[j : j+8 : j+8]
		var s0, s1, s2, s3, s4, s5, s6, s7 E
		if mode == tileSeed {
			s0, s1, s2, s3, s4, s5, s6, s7 = cj[0], cj[1], cj[2], cj[3], cj[4], cj[5], cj[6], cj[7]
		}
		ai, bi := 0, j
		for p := 0; p < k; p++ {
			av, bp := a[ai], b[bi:bi+8:bi+8]
			s0 += E(av * bp[0])
			s1 += E(av * bp[1])
			s2 += E(av * bp[2])
			s3 += E(av * bp[3])
			s4 += E(av * bp[4])
			s5 += E(av * bp[5])
			s6 += E(av * bp[6])
			s7 += E(av * bp[7])
			ai += acs
			bi += ldb
		}
		if mode == tileAddTo {
			s0, s1, s2, s3 = cj[0]+s0, cj[1]+s1, cj[2]+s2, cj[3]+s3
			s4, s5, s6, s7 = cj[4]+s4, cj[5]+s5, cj[6]+s6, cj[7]+s7
		}
		cj[0], cj[1], cj[2], cj[3], cj[4], cj[5], cj[6], cj[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; j < len(ci); j++ {
		var s E
		if mode == tileSeed {
			s = ci[j]
		}
		ai, bi := 0, j
		for p := 0; p < k; p++ {
			s += E(a[ai] * b[bi])
			ai += acs
			bi += ldb
		}
		if mode == tileAddTo {
			s = ci[j] + s
		}
		ci[j] = s
	}
}

// MatMul computes C = A × B for 2-D tensors A (m×k) and B (k×n), returning a
// new m×n tensor of the operands' dtype.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	checkSameDType("MatMul", a, b)
	c := NewOf(a.dt, m, n)
	if a.dt == Float32 {
		matmul(tile32, c.data32, a.data32, b.data32, m, k, n, tileStore)
	} else {
		matmul(tile64, c.data, a.data, b.data, m, k, n, tileStore)
	}
	return c
}

// MatMulInto computes dst = A × B, fully overwriting dst's storage (prior
// contents, including NaNs from the scratch arena, are ignored). dst must be
// m×n.
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulInto", dst, a, b)
	if dst.dt == Float32 {
		matmul(tile32, dst.data32, a.data32, b.data32, m, k, n, tileStore)
	} else {
		matmul(tile64, dst.data, a.data, b.data, m, k, n, tileStore)
	}
}

// MatMulAcc computes dst += A × B without materializing the product. Below
// accSeedCutoff multiply-adds each element's accumulator starts from dst and
// takes the k products in p order; from there up the k products are summed
// from zero and the sum is added to dst once.
func MatMulAcc(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAcc shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulAcc", dst, a, b)
	// Which of the two sequences runs was once decided by whether the
	// product was large enough to pack Bᵀ; the pack is gone, the boundary is
	// kept so no MatMulAcc result changes.
	mode := tileAddTo
	if int64(m)*int64(k)*int64(n) < accSeedCutoff {
		mode = tileSeed
	}
	if dst.dt == Float32 {
		matmul(tile32, dst.data32, a.data32, b.data32, m, k, n, mode)
	} else {
		matmul(tile64, dst.data, a.data, b.data, m, k, n, mode)
	}
}

func matmul[E Elem](tile tileFunc[E], c, a, b []E, m, k, n int, mode tileMode) {
	gemm(tile, c, n, a, k, 1, b, n, m, k, n, mode)
}

func checkTransA(a, b *Tensor) (k, m, n int) {
	k, m = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	return k, m, n
}

// MatMulTransA computes C = Aᵀ × B where A is k×m and B is k×n, yielding
// m×n without materializing the transpose.
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := checkTransA(a, b)
	checkSameDType("MatMulTransA", a, b)
	c := NewOf(a.dt, m, n)
	if a.dt == Float32 {
		matmulTransA(tile32, c.data32, a.data32, b.data32, k, m, n, tileStore)
	} else {
		matmulTransA(tile64, c.data, a.data, b.data, k, m, n, tileStore)
	}
	return c
}

// MatMulTransAInto computes dst = Aᵀ × B, fully overwriting dst (m×n).
func MatMulTransAInto(dst, a, b *Tensor) {
	k, m, n := checkTransA(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulTransAInto", dst, a, b)
	if dst.dt == Float32 {
		matmulTransA(tile32, dst.data32, a.data32, b.data32, k, m, n, tileStore)
	} else {
		matmulTransA(tile64, dst.data, a.data, b.data, k, m, n, tileStore)
	}
}

// MatMulTransAAcc computes dst += Aᵀ × B, the gradient-accumulation
// primitive (dW += xᵀ·grad) that avoids a temporary plus an Add pass: each
// element's accumulator starts from dst and takes the k products in p order.
func MatMulTransAAcc(dst, a, b *Tensor) {
	k, m, n := checkTransA(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAAcc shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulTransAAcc", dst, a, b)
	if dst.dt == Float32 {
		matmulTransA(tile32, dst.data32, a.data32, b.data32, k, m, n, tileSeed)
	} else {
		matmulTransA(tile64, dst.data, a.data, b.data, k, m, n, tileSeed)
	}
}

// matmulTransA is the micro-kernel walking A (k×m) down its columns: output
// row i reads a[p*m+i].
func matmulTransA[E Elem](tile tileFunc[E], c, a, b []E, k, m, n int, mode tileMode) {
	gemm(tile, c, n, a, 1, m, b, n, m, k, n, mode)
}

func checkTransB(a, b *Tensor) (m, k, n int) {
	m, k = a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	return m, k, n
}

// MatMulTransB computes C = A × Bᵀ where A is m×k and B is n×k, yielding m×n.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := checkTransB(a, b)
	checkSameDType("MatMulTransB", a, b)
	c := NewOf(a.dt, m, n)
	if a.dt == Float32 {
		matmulTransB(tile32, c.data32, a.data32, b.data32, m, k, n, false)
	} else {
		matmulTransB(tile64, c.data, a.data, b.data, m, k, n, false)
	}
	return c
}

// MatMulTransBInto computes dst = A × Bᵀ, fully overwriting dst (m×n).
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := checkTransB(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulTransBInto", dst, a, b)
	if dst.dt == Float32 {
		matmulTransB(tile32, dst.data32, a.data32, b.data32, m, k, n, false)
	} else {
		matmulTransB(tile64, dst.data, a.data, b.data, m, k, n, false)
	}
}

// MatMulTransBAcc computes dst += A × Bᵀ. Each element's dot product is
// formed in a private accumulator and added to dst once, matching the
// compute-then-Add semantics of the unfused path bit-for-bit.
func MatMulTransBAcc(dst, a, b *Tensor) {
	m, k, n := checkTransB(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBAcc shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulTransBAcc", dst, a, b)
	if dst.dt == Float32 {
		matmulTransB(tile32, dst.data32, a.data32, b.data32, m, k, n, true)
	} else {
		matmulTransB(tile64, dst.data, a.data, b.data, m, k, n, true)
	}
}

// matmulTransB computes C (+)= A × Bᵀ for A m×k and B n×k. The micro-kernel
// wants its right operand row-major in p, which neither is, so the smaller of
// the two is transposed into scratch. If that is B the product runs directly.
// If it is A the product runs transposed, Cᵀ = B × Aᵀ, into scratch whose
// rows are padded to whole tiles (so a narrow m still fills vector lanes),
// and is folded back element by element. Either way an element is its k
// products summed from zero, then stored or added to C once.
func matmulTransB[E Elem](tile tileFunc[E], c, a, b []E, m, k, n int, acc bool) {
	dt := dtypeOf[E]()
	if n <= m {
		bts := GetScratchOf(dt, k, n)
		transposeInto(DataOf[E](bts), n, b, n, k)
		mode := tileStore
		if acc {
			mode = tileAddTo
		}
		gemm(tile, c, n, a, k, 1, DataOf[E](bts), n, m, k, n, mode)
		PutScratch(bts)
		return
	}
	w := tileCols[E]()
	mp := (m + w - 1) / w * w
	ats, cts := GetScratchOf(dt, k, mp), GetScratchOf(dt, n, mp)
	ct := DataOf[E](cts)
	transposeInto(DataOf[E](ats), mp, a, m, k)
	gemm(tile, ct, mp, b, k, 1, DataOf[E](ats), mp, n, k, mp, tileStore)
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		if acc {
			for j := range ci {
				ci[j] += ct[j*mp+i]
			}
		} else {
			for j := range ci {
				ci[j] = ct[j*mp+i]
			}
		}
	}
	PutScratch(ats)
	PutScratch(cts)
}

// transposeInto writes the r×c matrix src transposed into dst (c rows of
// stride ldd >= r), zeroing the ldd-r columns of padding, using
// cache-friendly square tiles. Pure data movement — layout only.
func transposeInto[E Elem](dst []E, ldd int, src []E, r, c int) {
	const tile = 32
	if parallelWorthwhile(int64(r) * int64(c) * 8) {
		par.ParallelizeGrain(c, tile, func(lo, hi int) {
			transposeTiles(dst, ldd, src, r, c, lo, hi)
		})
		return
	}
	transposeTiles(dst, ldd, src, r, c, 0, c)
}

func transposeTiles[E Elem](dst []E, ldd int, src []E, r, c, jLo, jHi int) {
	const tile = 32
	for j0 := jLo; j0 < jHi; j0 += tile {
		j1 := min(j0+tile, jHi)
		for i0 := 0; i0 < r; i0 += tile {
			// Rows of src are walked along their length: the operand A × Bᵀ
			// transposes is the one with few rows and long ones.
			for i := i0; i < min(i0+tile, r); i++ {
				d := dst[j0*ldd+i:]
				for jj, v := range src[i*c+j0 : i*c+j1] {
					d[jj*ldd] = v
				}
			}
		}
		if ldd > r {
			for j := j0; j < j1; j++ {
				fillSlice(dst[j*ldd+r:(j+1)*ldd], 0)
			}
		}
	}
}
