package nn

import "fedsu/internal/tensor"

// The step passes as they were written before they ran branch-free: ReLU
// with its []bool mask, the max-pool that compared tap by tap, the pool's
// zero-then-accumulate backward, and tensor's im2col and col2im loops with
// their per-segment slicing, which convRef builds the convolution from as it
// was lowered before its products read NCHW tensors in place. They are the
// oracle passes_test.go holds the library to, bit for bit. Never edit them
// to match the library.

func reluForwardRef(yd []float64, mask []bool, xd []float64) {
	for i, v := range xd {
		pos := v > 0
		mask[i] = pos
		if !pos {
			v = 0
		}
		yd[i] = v
	}
}

func reluBackwardRef(od []float64, mask []bool, gd []float64) {
	for i, v := range gd {
		if !mask[i] {
			v = 0
		}
		od[i] = v
	}
}

// maxPoolForwardRef is MaxPool2D.Forward's two paths: the 2×2/2 loop and the
// general one.
func maxPoolForwardRef(od []float64, argmax []int, xd []float64, p tensor.ConvParams, n, c, h, w int) {
	oh, ow := p.OutSize(h, w)
	if p.KernelH == 2 && p.KernelW == 2 && p.StrideH == 2 && p.StrideW == 2 {
		maxPool2x2Ref(od, argmax, xd, n*c, h, w, oh, ow)
		return
	}
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var best float64
					bidx := -1
					for ky := 0; ky < p.KernelH; ky++ {
						iy := oy*p.StrideH + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < p.KernelW; kx++ {
							ix := ox*p.StrideW + kx
							if ix >= w {
								continue
							}
							idx := base + iy*w + ix
							if v := xd[idx]; bidx < 0 || v > best {
								best, bidx = v, idx
							}
						}
					}
					od[oi] = best
					argmax[oi] = bidx
					oi++
				}
			}
		}
	}
}

func maxPool2x2Ref(od []float64, argmax []int, xd []float64, planes, h, w, oh, ow int) {
	oi := 0
	for pl := 0; pl < planes; pl++ {
		for oy := 0; oy < oh; oy++ {
			top := (pl*h + 2*oy) * w
			r0 := xd[top : top+2*ow]
			r1 := xd[top+w : top+w+2*ow]
			orow, arow := od[oi:oi+ow], argmax[oi:oi+ow]
			for ox := range orow {
				best, bi := r0[2*ox], 0
				if v := r0[2*ox+1]; v > best {
					best, bi = v, 1
				}
				if v := r1[2*ox]; v > best {
					best, bi = v, w
				}
				if v := r1[2*ox+1]; v > best {
					best, bi = v, w+1
				}
				orow[ox], arow[ox] = best, top+2*ox+bi
			}
			oi += ow
		}
	}
}

func maxPoolBackwardRef(dd []float64, argmax []int, gd []float64) {
	for i := range dd {
		dd[i] = 0
	}
	for oi, idx := range argmax {
		dd[idx] += gd[oi]
	}
}

// convRef is Conv2D as an im2col lowering: im2col, y = W × cols, the
// (outC, N·OH·OW) → NCHW reorder with the bias added on the way; the
// gradient reordered back, dW += g × colsᵀ (the retired accumulating product
// is its plain product added to dW once), the bias gradient summed at
// float64 per channel, dCols = Wᵀ × g and col2im. It returns y without and
// with the bias, dW and db after one backward onto dW0 and db0, and dx.
func convRef(x, wt, bias, g, dW0, db0 []float64, p tensor.ConvParams, n, c, h, w, outC int) (y, yb, dW, db, dx []float64) {
	oh, ow := p.OutSize(h, w)
	k, plane := c*p.KernelH*p.KernelW, oh*ow
	spatial := n * plane
	cols := make([]float64, k*spatial)
	im2colRef(cols, x, p, n, c, h, w)
	colsT, wT := tensor.FromSlice(cols, k, spatial), tensor.FromSlice(wt, outC, k)
	yc := tensor.MatMul(wT, colsT).Data()
	y, yb = make([]float64, n*outC*plane), make([]float64, n*outC*plane)
	gr := make([]float64, outC*spatial)
	for oc := 0; oc < outC; oc++ {
		for ni := 0; ni < n; ni++ {
			for i := 0; i < plane; i++ {
				v := yc[(oc*n+ni)*plane+i]
				y[(ni*outC+oc)*plane+i] = v
				yb[(ni*outC+oc)*plane+i] = v + bias[oc]
				gr[(oc*n+ni)*plane+i] = g[(ni*outC+oc)*plane+i]
			}
		}
	}
	grT := tensor.FromSlice(gr, outC, spatial)
	dW = append([]float64(nil), dW0...)
	for i, v := range tensor.MatMulTransB(grT, colsT).Data() {
		dW[i] += v
	}
	db = append([]float64(nil), db0...)
	for oc := range db {
		s := 0.0
		for _, v := range gr[oc*spatial : (oc+1)*spatial] {
			s += v
		}
		db[oc] += s
	}
	dx = make([]float64, n*c*h*w)
	col2imRef(dx, tensor.MatMulTransA(wT, grT).Data(), p, n, c, h, w)
	return y, yb, dW, db, dx
}

// im2colRef and col2imRef are the serial bodies of tensor's retired
// Im2ColInto and Col2ImInto.
func im2colRef(od, xd []float64, p tensor.ConvParams, n, c, h, w int) {
	oh, ow := p.OutSize(h, w)
	cols := n * oh * ow
	for row := 0; row < c*p.KernelH*p.KernelW; row++ {
		kw := row % p.KernelW
		kh := (row / p.KernelW) % p.KernelH
		ci := row / (p.KernelW * p.KernelH)
		oyLo, oyHi := validRangeRef(kh, p.PadH, p.StrideH, h, oh)
		oxLo, oxHi := validRangeRef(kw, p.PadW, p.StrideW, w, ow)
		dst := od[row*cols : (row+1)*cols]
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				dstRow := dst[(ni*oh+oy)*ow : (ni*oh+oy+1)*ow]
				if oy < oyLo || oy > oyHi || oxLo > oxHi {
					for j := range dstRow {
						dstRow[j] = 0
					}
					continue
				}
				iy := oy*p.StrideH + kh - p.PadH
				src := xd[base+iy*w : base+(iy+1)*w]
				for j := 0; j < oxLo; j++ {
					dstRow[j] = 0
				}
				ix := oxLo*p.StrideW + kw - p.PadW
				if p.StrideW == 1 {
					copy(dstRow[oxLo:oxHi+1], src[ix:ix+oxHi-oxLo+1])
				} else {
					for ox := oxLo; ox <= oxHi; ox++ {
						dstRow[ox] = src[ix]
						ix += p.StrideW
					}
				}
				for j := oxHi + 1; j < ow; j++ {
					dstRow[j] = 0
				}
			}
		}
	}
}

func col2imRef(xd, cd []float64, p tensor.ConvParams, n, c, h, w int) {
	oh, ow := p.OutSize(h, w)
	colN := n * oh * ow
	for ci := 0; ci < c; ci++ {
		for ni := 0; ni < n; ni++ {
			slab := xd[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
			for j := range slab {
				slab[j] = 0
			}
		}
		for kh := 0; kh < p.KernelH; kh++ {
			oyLo, oyHi := validRangeRef(kh, p.PadH, p.StrideH, h, oh)
			for kw := 0; kw < p.KernelW; kw++ {
				oxLo, oxHi := validRangeRef(kw, p.PadW, p.StrideW, w, ow)
				if oxLo > oxHi {
					continue
				}
				row := (ci*p.KernelH+kh)*p.KernelW + kw
				src := cd[row*colN : (row+1)*colN]
				for ni := 0; ni < n; ni++ {
					base := (ni*c + ci) * h * w
					for oy := oyLo; oy <= oyHi; oy++ {
						iy := oy*p.StrideH + kh - p.PadH
						srcRow := src[(ni*oh+oy)*ow : (ni*oh+oy+1)*ow]
						dst := xd[base+iy*w : base+(iy+1)*w]
						ix := oxLo*p.StrideW + kw - p.PadW
						if p.StrideW == 1 {
							d := dst[ix : ix+oxHi-oxLo+1]
							s := srcRow[oxLo : oxHi+1]
							for j := range d {
								d[j] += s[j]
							}
						} else {
							for ox := oxLo; ox <= oxHi; ox++ {
								dst[ix] += srcRow[ox]
								ix += p.StrideW
							}
						}
					}
				}
			}
		}
	}
}

func validRangeRef(k, pad, stride, n, out int) (lo, hi int) {
	lo = divCeilRef(pad-k, stride)
	if lo < 0 {
		lo = 0
	}
	hi = divFloorRef(n-1+pad-k, stride)
	if hi > out-1 {
		hi = out - 1
	}
	return lo, hi
}

func divFloorRef(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func divCeilRef(a, b int) int { return -divFloorRef(-a, b) }
