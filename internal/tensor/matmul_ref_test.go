package tensor

// The scalar kernels the micro-kernel design retired, kept verbatim as the
// oracle for microkernel_test.go (the way the codec package keeps
// base_scalar_test.go and entropy_ref_test.go): matmulPackedRows (a dot
// product per element over a packed Bᵀ), matmulBlock (the in-place accumulate
// kernel small products used), matmulTransACols, and the Bᵀ pack. The ref*
// functions below are the serial paths of the drivers that chose between
// them; the parallel paths only split rows or columns.
//
// One behaviour of these kernels is deliberately not reproduced by the
// micro-kernel: matmulBlock and matmulTransACols skip a p step when the A
// values it would multiply are all zero. With finite operands that changes
// nothing but the sign of a zero (skipping keeps a −0 already in C where
// adding +0 makes it +0, which only an accumulating entry point on a C
// holding −0 can show); with a non-finite B it hides 0·Inf = NaN.
// TestMicroKernelNonFinite pins both.

// refTileK and refTileJ bounded the B panel of the cache-blocked kernels.
const (
	refTileK = 128
	refTileJ = 512
)

// refPackCutoff is the work size above which the retired MatMul packed Bᵀ;
// accSeedCutoff must stay equal to it for MatMulAcc to keep its results.
const refPackCutoff = 1 << 15

func refMatmul[E Elem](c, a, b []E, m, k, n int, acc bool) {
	if int64(m)*int64(k)*int64(n) < refPackCutoff {
		matmulBlock(c, a, b, 0, m, 0, n, k, n, acc)
		return
	}
	bt := make([]E, n*k)
	refTransposeTiles(bt, b, k, n, 0, n)
	matmulPackedRows(c, a, bt, 0, m, k, n, acc)
}

func refMatmulTransA[E Elem](c, a, b []E, k, m, n int, acc bool) {
	matmulTransACols(c, a, b, k, m, n, 0, n, acc)
}

func refMatmulTransB[E Elem](c, a, b []E, m, k, n int, acc bool) {
	matmulPackedRows(c, a, b, 0, m, k, n, acc)
}

func refTransposeTiles[E Elem](dst, src []E, r, c, jLo, jHi int) {
	const tile = 32
	for j0 := jLo; j0 < jHi; j0 += tile {
		j1 := j0 + tile
		if j1 > jHi {
			j1 = jHi
		}
		for i0 := 0; i0 < r; i0 += tile {
			i1 := i0 + tile
			if i1 > r {
				i1 = r
			}
			for j := j0; j < j1; j++ {
				dj := dst[j*r+i0 : j*r+i1]
				for i := range dj {
					dj[i] = src[(i0+i)*c+j]
				}
			}
		}
	}
}

// matmulPackedRows computes output rows [lo, hi) against the packed (n×k)
// Bᵀ: each element is one contiguous dot product accumulated in registers,
// with a 4-column register tile sharing every streamed A row. Elements are
// independent ordered reductions, so any chunking yields identical bits.
// Accumulators are E-typed (storage width) — see the file comment.
func matmulPackedRows[E Elem](c, a, bt []E, lo, hi, k, n int, acc bool) {
	// 4×2 register tile: four A rows share every streamed Bᵀ row, so the
	// packed matrix is pulled through the cache hierarchy once per four
	// output rows instead of once per row. Each of the eight sums is still
	// an independent ordered dot product — tiling changes nothing bitwise.
	i := lo
	for ; i+tileRows <= hi; i += tileRows {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		a2 := a[(i+2)*k : (i+3)*k]
		a3 := a[(i+3)*k : (i+4)*k]
		j := 0
		for ; j+2 <= n; j += 2 {
			bA := bt[(j+0)*k:][:len(a0)]
			bB := bt[(j+1)*k:][:len(a0)]
			var s00, s01, s10, s11, s20, s21, s30, s31 E
			for p, bv0 := range bA {
				bv1 := bB[p]
				v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
				s00 += v0 * bv0
				s01 += v0 * bv1
				s10 += v1 * bv0
				s11 += v1 * bv1
				s20 += v2 * bv0
				s21 += v2 * bv1
				s30 += v3 * bv0
				s31 += v3 * bv1
			}
			if acc {
				c[(i+0)*n+j] += s00
				c[(i+0)*n+j+1] += s01
				c[(i+1)*n+j] += s10
				c[(i+1)*n+j+1] += s11
				c[(i+2)*n+j] += s20
				c[(i+2)*n+j+1] += s21
				c[(i+3)*n+j] += s30
				c[(i+3)*n+j+1] += s31
			} else {
				c[(i+0)*n+j], c[(i+0)*n+j+1] = s00, s01
				c[(i+1)*n+j], c[(i+1)*n+j+1] = s10, s11
				c[(i+2)*n+j], c[(i+2)*n+j+1] = s20, s21
				c[(i+3)*n+j], c[(i+3)*n+j+1] = s30, s31
			}
		}
		for ; j < n; j++ {
			bj := bt[j*k:][:len(a0)]
			var s0, s1, s2, s3 E
			for p, bv := range bj {
				s0 += a0[p] * bv
				s1 += a1[p] * bv
				s2 += a2[p] * bv
				s3 += a3[p] * bv
			}
			if acc {
				c[(i+0)*n+j] += s0
				c[(i+1)*n+j] += s1
				c[(i+2)*n+j] += s2
				c[(i+3)*n+j] += s3
			} else {
				c[(i+0)*n+j], c[(i+1)*n+j], c[(i+2)*n+j], c[(i+3)*n+j] = s0, s1, s2, s3
			}
		}
	}
	for ; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		j := 0
		for ; j+tileRows <= n; j += tileRows {
			// Re-slicing to len(ai) lets the compiler drop the four inner
			// bounds checks.
			b0 := bt[(j+0)*k:][:len(ai)]
			b1 := bt[(j+1)*k:][:len(ai)]
			b2 := bt[(j+2)*k:][:len(ai)]
			b3 := bt[(j+3)*k:][:len(ai)]
			var s0, s1, s2, s3 E
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			if acc {
				ci[j] += s0
				ci[j+1] += s1
				ci[j+2] += s2
				ci[j+3] += s3
			} else {
				ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
			}
		}
		for ; j < n; j++ {
			bj := bt[j*k:][:len(ai)]
			var s E
			for p, av := range ai {
				s += av * bj[p]
			}
			if acc {
				ci[j] += s
			} else {
				ci[j] = s
			}
		}
	}
}

// matmulBlock computes the output block rows [iLo, iHi) × cols [jLo, jHi),
// overwriting it (or accumulating onto it when acc is set). The row range
// is processed in absolute tileRows register tiles (row chunks arrive
// tile-aligned from ParallelizeGrain except the final tail) and the k/j
// dimensions in refTileK×refTileJ cache panels, so every element accumulates its
// k products in exactly the order p = 0..k-1 regardless of chunking or
// panel boundaries.
func matmulBlock[E Elem](c, a, b []E, iLo, iHi, jLo, jHi, k, n int, acc bool) {
	if !acc {
		for i := iLo; i < iHi; i++ {
			row := c[i*n+jLo : i*n+jHi]
			for j := range row {
				row[j] = 0
			}
		}
	}
	for jc := jLo; jc < jHi; jc += refTileJ {
		jcHi := jc + refTileJ
		if jcHi > jHi {
			jcHi = jHi
		}
		for pc := 0; pc < k; pc += refTileK {
			pcHi := pc + refTileK
			if pcHi > k {
				pcHi = k
			}
			i := iLo
			for ; i+tileRows <= iHi; i += tileRows {
				c0 := c[(i+0)*n+jc : (i+0)*n+jcHi]
				c1 := c[(i+1)*n+jc : (i+1)*n+jcHi]
				c2 := c[(i+2)*n+jc : (i+2)*n+jcHi]
				c3 := c[(i+3)*n+jc : (i+3)*n+jcHi]
				a0 := a[(i+0)*k : (i+1)*k]
				a1 := a[(i+1)*k : (i+2)*k]
				a2 := a[(i+2)*k : (i+3)*k]
				a3 := a[(i+3)*k : (i+4)*k]
				for p := pc; p < pcHi; p++ {
					v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
					if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
						continue
					}
					bp := b[p*n+jc : p*n+jcHi]
					for j, bv := range bp {
						c0[j] += v0 * bv
						c1[j] += v1 * bv
						c2[j] += v2 * bv
						c3[j] += v3 * bv
					}
				}
			}
			for ; i < iHi; i++ {
				ci := c[i*n+jc : i*n+jcHi]
				ai := a[i*k : (i+1)*k]
				for p := pc; p < pcHi; p++ {
					av := ai[p]
					if av == 0 {
						continue
					}
					bp := b[p*n+jc : p*n+jcHi]
					for j, bv := range bp {
						ci[j] += av * bv
					}
				}
			}
		}
	}
}

// matmulTransACols computes output columns [jlo, jhi). The p loop streams
// rows of A and B while tileRows rows of C share each B row slab; the
// column range is processed in panels sized so the touched C panel
// (m × panel) stays cache-resident across all k passes. The i-tile
// decomposition covers the full row range in every worker and panels only
// reorder whole-element groups, so results are chunk-invariant. This kernel
// accumulates directly into C at storage width: each element receives its k
// contributions in p order, matching the dot-kernel rounding sequence
// exactly, so both code paths agree bitwise per precision.
func matmulTransACols[E Elem](c, a, b []E, k, m, n, jlo, jhi int, acc bool) {
	if !acc {
		for i := 0; i < m; i++ {
			row := c[i*n+jlo : i*n+jhi]
			for j := range row {
				row[j] = 0
			}
		}
	}
	// C panel budget: refTileK*refTileJ elements (512 KiB at float64), spread over
	// m rows.
	panel := refTileK * refTileJ / m
	if panel < 32 {
		panel = 32
	}
	if panel > refTileJ {
		panel = refTileJ
	}
	for jc := jlo; jc < jhi; jc += panel {
		jcHi := jc + panel
		if jcHi > jhi {
			jcHi = jhi
		}
		w := jcHi - jc
		for p := 0; p < k; p++ {
			ap := a[p*m : (p+1)*m]
			bp := b[p*n+jc : p*n+jcHi]
			i := 0
			for ; i+tileRows <= m; i += tileRows {
				v0, v1, v2, v3 := ap[i], ap[i+1], ap[i+2], ap[i+3]
				if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
					continue
				}
				c0 := c[(i+0)*n+jc : (i+0)*n+jc+w]
				c1 := c[(i+1)*n+jc : (i+1)*n+jc+w]
				c2 := c[(i+2)*n+jc : (i+2)*n+jc+w]
				c3 := c[(i+3)*n+jc : (i+3)*n+jc+w]
				for j, bv := range bp {
					c0[j] += v0 * bv
					c1[j] += v1 * bv
					c2[j] += v2 * bv
					c3[j] += v3 * bv
				}
			}
			for ; i < m; i++ {
				av := ap[i]
				if av == 0 {
					continue
				}
				ci := c[i*n+jc : i*n+jc+w]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	}
}
