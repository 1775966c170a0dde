package tensor

import (
	"fmt"
	"math/bits"
	"sync"

	"fedsu/internal/par"
)

// Every matrix product in this package is one register-tile micro-kernel
// under a driver. The kernel's contract (tileFunc) is
//
//	C[4×8] (= | +=) Σ_p a[arow[r] + acol[p]] · b[boff[p] + j … j+8)
//
// The operands' addresses come from offset tables, per row of A (arow) and
// per p step (acol, boff), so one kernel reads a row-major matrix, a
// transposed one or an NCHW tensor in place. Vector lanes are different
// output columns, so each lane carries one element's private sum; every p
// step is a separate multiply then a separate add (never a fused
// multiply-add, whose single rounding would change bits), taken in
// p = 0..k-1 order; and the accumulators start from zero or from C.
// Each output element is therefore the same ordered sum of rounded products
// the scalar code computes, and there are three implementations of the
// contract: Go assembly for amd64 at two register widths, AVX-512 and AVX2
// (kernel_amd64.s), and goTile below, which is also what the drivers'
// fringes run on. They agree bit for bit (microkernel_test.go, which also
// holds each against the scalar kernels this design retired).
//
// The matrix products are the strided driver gemm, whose tables are
// arithmetic (arow[r] = r·ars, acol[p] = p·acs, boff[p] = p·ldb):
//
//   - A × B reads row-major B in place (ars = k, acs = 1): nothing is packed.
//   - Aᵀ × B is the same call with ars = 1, acs = m.
//   - A × Bᵀ has no row-major right operand, so it transposes the smaller of
//     its two operands into arena scratch; if that was A it computes the
//     transposed product Cᵀ = B × Aᵀ and folds it back.
//
// The convolution (convolve.go) drives the same kernel with tables over NCHW
// tensors and builds no column matrix.
//
// Three properties are load-bearing for the rest of the stack:
//
//   - Bit-determinism: an element's value depends on nothing but its own
//     ordered sum, so results are bitwise identical at every worker count,
//     tile decomposition and kernel implementation.
//   - No hidden allocation: the *Into and *Acc variants write caller-owned
//     storage, which the nn layers draw from the scratch arena.
//
// Non-finite inputs propagate by IEEE rules: 0·Inf is NaN and reaches the
// output. Small products run serially so eval-scale tensors do not pay
// goroutine handoff; the cutoff is tunable for tests via SetParallelCutoff.

// tileRows is the micro-kernel's height in output rows; the row split hands
// workers whole tiles.
const tileRows = 4

// tileCols is the micro-kernel's width W in output columns: two 256-bit
// registers of float64, or one 512-bit register.
const tileCols = 8

// tileMode says where a tile's accumulators start and how they land in C.
// The values are shared with the assembly.
type tileMode int

const (
	tileStore tileMode = iota // C = Σ, summed from zero
	tileSeed                  // C = (…((C + t₀) + t₁)…): summed from C
	tileAddTo                 // C = C + Σ, Σ summed from zero
)

// tileFunc computes one full tileRows×tileCols tile: c starts at the tile's
// first element, A element (r, p) is a[arow[r]+acol[p]] and B row p is
// b[boff[p] … +W); arow holds at least 4 entries, acol and boff at least k,
// k >= 1.
type tileFunc func(c []float64, ldc int, a []float64, arow, acol []int, b []float64, boff []int, k int, mode tileMode)

// microTile is the micro-kernel the drivers call: the Go tile, unless
// kernel_amd64.go's init found a CPU for the assembly (build tag
// amd64 && !purego), the AVX-512 tile over the AVX2 one. Nothing else but a
// test reassigns it; tileImpl names the choice for test logs.
var (
	microTile tileFunc = goTile
	tileImpl           = "go"
)

// parallelCutoff is the minimum work size (multiply-adds for matmul,
// the convolution's products) that engages the worker pool.
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

// offsetPools recycle the tables of the strided driver by power-of-two
// size class, so a product of any shape draws its tables without
// allocating in steady state.
var offsetPools [40]sync.Pool

func getOffsets(n int) *[]int {
	c := bits.Len(uint(n - 1))
	if t, ok := offsetPools[c].Get().(*[]int); ok {
		*t = (*t)[:n]
		return t
	}
	t := make([]int, n, 1<<c)
	return &t
}

func putOffsets(t *[]int) { offsetPools[bits.Len(uint(cap(*t)))-1].Put(t) }

// gemm is the strided driver: C (m×n, row stride ldc) from A addressed as
// a[i*ars+p*acs] and row-major B (k×n, row stride ldb). Rows are split over
// the worker pool in whole tiles; any split gives the same bits.
func gemm(c []float64, ldc int, a []float64, ars, acs int, b []float64, ldb, m, k, n int, mode tileMode) {
	if k == 0 {
		if mode == tileStore {
			for i := 0; i < m; i++ {
				fillSlice(c[i*ldc:i*ldc+n], 0)
			}
		}
		return
	}
	t := getOffsets(tileRows + 2*k)
	arow, acol, boff := (*t)[:tileRows], (*t)[tileRows:tileRows+k], (*t)[tileRows+k:]
	for r := range arow {
		arow[r] = r * ars
	}
	for p := range acol {
		acol[p], boff[p] = p*acs, p*ldb
	}
	if parallelWorthwhile(int64(m) * int64(k) * int64(n)) {
		par.ParallelizeGrain(m, tileRows, func(lo, hi int) {
			gemmRows(c, ldc, a, ars, arow, acol, b, boff, lo, hi, n, mode)
		})
	} else {
		gemmRows(c, ldc, a, ars, arow, acol, b, boff, 0, m, n, mode)
	}
	putOffsets(t)
}

// gemmRows computes output rows [lo, hi): full tiles through the
// micro-kernel, column strip by column strip so the k×W panel of B stays in
// cache while the row tiles pass over it, then the n mod W columns and the
// (hi-lo) mod 4 rows that are left through goBlock. Row i of A starts at
// a[i*ars], so one 4-entry arow serves every tile.
func gemmRows(c []float64, ldc int, a []float64, ars int, arow, acol []int, b []float64, boff []int, lo, hi, n int, mode tileMode) {
	k, w, tile := len(acol), tileCols, microTile
	full := lo + (hi-lo)/tileRows*tileRows
	nt := n - n%w
	for j := 0; j < nt; j += w {
		for i := lo; i < full; i += tileRows {
			tile(c[i*ldc+j:], ldc, a[i*ars:], arow, acol, b[j:], boff, k, mode)
		}
	}
	for i := lo; nt < n && i < full; i += tileRows {
		goBlock(c[i*ldc+nt:], ldc, a[i*ars:], arow, acol, b[nt:], boff, tileRows, n-nt, mode)
	}
	if full < hi {
		goBlock(c[full*ldc:], ldc, a[full*ars:], arow, acol, b, boff, hi-full, n, mode)
	}
}

// goTile is the micro-kernel in Go: the tile every build without the
// assembly runs on, and the reference the assembly is held to.
func goTile(c []float64, ldc int, a []float64, arow, acol []int, b []float64, boff []int, k int, mode tileMode) {
	goBlock(c, ldc, a, arow, acol[:k], b, boff, tileRows, tileCols, mode)
}

// goBlock computes a rows×cols block (rows <= len(arow)) by the
// micro-kernel's contract, a row at a time; the inner dimension is
// len(acol).
func goBlock(c []float64, ldc int, a []float64, arow, acol []int, b []float64, boff []int, rows, cols int, mode tileMode) {
	for i := 0; i < rows; i++ {
		goRow(c[i*ldc:i*ldc+cols], a[arow[i]:], acol, b, boff[:len(acol)], mode)
	}
}

// goRow computes one output row, eight columns at a time: eight independent
// sums in registers hide the add latency, and their B values are one window
// of a row of B. The float64(…) conversions round each product before it is
// added: on architectures where the compiler would otherwise fuse the pair,
// the language guarantees an explicit conversion is not fused through.
func goRow(ci, a []float64, acol []int, b []float64, boff []int, mode tileMode) {
	j := 0
	for ; j+8 <= len(ci); j += 8 {
		cj := ci[j : j+8 : j+8]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		if mode == tileSeed {
			s0, s1, s2, s3, s4, s5, s6, s7 = cj[0], cj[1], cj[2], cj[3], cj[4], cj[5], cj[6], cj[7]
		}
		for p, ao := range acol {
			bi := boff[p] + j
			av, bp := a[ao], b[bi:bi+8:bi+8]
			s0 += float64(av * bp[0])
			s1 += float64(av * bp[1])
			s2 += float64(av * bp[2])
			s3 += float64(av * bp[3])
			s4 += float64(av * bp[4])
			s5 += float64(av * bp[5])
			s6 += float64(av * bp[6])
			s7 += float64(av * bp[7])
		}
		if mode == tileAddTo { // Σ first, as the assembly adds
			s0, s1, s2, s3 = s0+cj[0], s1+cj[1], s2+cj[2], s3+cj[3]
			s4, s5, s6, s7 = s4+cj[4], s5+cj[5], s6+cj[6], s7+cj[7]
		}
		cj[0], cj[1], cj[2], cj[3], cj[4], cj[5], cj[6], cj[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; j < len(ci); j++ {
		var s float64
		if mode == tileSeed {
			s = ci[j]
		}
		for p, ao := range acol {
			s += float64(a[ao] * b[boff[p]+j])
		}
		if mode == tileAddTo {
			s += ci[j]
		}
		ci[j] = s
	}
}

// MatMul computes C = A × B for 2-D tensors A (m×k) and B (k×n), returning a
// new m×n tensor.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	c := New(m, n)
	matmul(c.data, a.data, b.data, m, k, n)
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
	matmul(dst.data, a.data, b.data, m, k, n)
}

func matmul(c, a, b []float64, m, k, n int) {
	gemm(c, n, a, k, 1, b, n, m, k, n, tileStore)
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
	c := New(m, n)
	matmulTransA(c.data, a.data, b.data, k, m, n, tileStore)
	return c
}

// MatMulTransAAcc computes dst += Aᵀ × B, the gradient-accumulation
// primitive (dW += xᵀ·grad) that avoids a temporary plus an Add pass: each
// element's accumulator starts from dst and takes the k products in p order.
func MatMulTransAAcc(dst, a, b *Tensor) {
	k, m, n := checkTransA(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAAcc shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	matmulTransA(dst.data, a.data, b.data, k, m, n, tileSeed)
}

// matmulTransA is the micro-kernel walking A (k×m) down its columns: output
// row i reads a[p*m+i].
func matmulTransA(c, a, b []float64, k, m, n int, mode tileMode) {
	gemm(c, n, a, 1, m, b, n, m, k, n, mode)
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
	c := New(m, n)
	matmulTransB(c.data, a.data, b.data, m, k, n)
	return c
}

// MatMulTransBInto computes dst = A × Bᵀ, fully overwriting dst (m×n).
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := checkTransB(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	matmulTransB(dst.data, a.data, b.data, m, k, n)
}

// matmulTransB computes C = A × Bᵀ for A m×k and B n×k. The micro-kernel
// wants its right operand row-major in p, which neither is, so the smaller of
// the two is transposed into scratch. If that is B the product runs directly.
// If it is A the product runs transposed, Cᵀ = B × Aᵀ, into scratch whose
// rows are padded to whole tiles (so a narrow m still fills vector lanes),
// and is copied back element by element. Either way an element is its k
// products summed from zero.
func matmulTransB(c, a, b []float64, m, k, n int) {
	if n <= m {
		bts := GetScratch(k, n)
		transposeInto(bts.data, n, b, n, k)
		gemm(c, n, a, k, 1, bts.data, n, m, k, n, tileStore)
		PutScratch(bts)
		return
	}
	mp := (m + tileCols - 1) / tileCols * tileCols
	ats, cts := GetScratch(k, mp), GetScratch(n, mp)
	ct := cts.data
	transposeInto(ats.data, mp, a, m, k)
	gemm(ct, mp, b, k, 1, ats.data, mp, n, k, mp, tileStore)
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = ct[j*mp+i]
		}
	}
	PutScratch(ats)
	PutScratch(cts)
}

// transposeInto writes the r×c matrix src transposed into dst (c rows of
// stride ldd >= r), zeroing the ldd-r columns of padding, using
// cache-friendly square tiles. Pure data movement — layout only.
func transposeInto(dst []float64, ldd int, src []float64, r, c int) {
	const tile = 32
	if parallelWorthwhile(int64(r) * int64(c) * 8) {
		par.ParallelizeGrain(c, tile, func(lo, hi int) {
			transposeTiles(dst, ldd, src, r, c, lo, hi)
		})
		return
	}
	transposeTiles(dst, ldd, src, r, c, 0, c)
}

func transposeTiles(dst []float64, ldd int, src []float64, r, c, jLo, jHi int) {
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
