package tensor

// The im2col lowering the convolution products retired: im2colRows and
// col2imChannels are the library's last unroll and fold loops, kept as the
// reference ConvPlan is held to (convLowered), next to the older loops in
// nn/passes_ref_test.go. Never edit them to match the library.

// im2col unrolls x (N, C, H, W) into the (C·KH·KW) × (N·OH·OW) column matrix.
func im2col(x *Tensor, p ConvParams) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	rows := c * p.KernelH * p.KernelW
	out := New(rows, n*oh*ow)
	im2colRows(out.data, x.data, p, n, c, h, w, oh, ow, 0, rows)
	return out
}

// col2im folds a column matrix back into an (N, C, H, W) tensor, summing
// overlapping taps: the adjoint of im2col.
func col2im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	oh, ow := p.OutSize(h, w)
	x := New(n, c, h, w)
	col2imChannels(x.data, cols.data, p, n, c, h, w, oh, ow, 0, c)
	return x
}

// im2colRows fills output rows [rLo, rHi); row index r decodes to the
// (channel, kernel-tap) pair r = (ci*KH + kh)*KW + kw. A row holds, per
// image, OH segments of OW values: zeros where the tap lands in the padding,
// the tap's input row in between.
func im2colRows(od, xd []float64, p ConvParams, n, c, h, w, oh, ow, rLo, rHi int) {
	cols, outPlane, inPlane := n*oh*ow, oh*ow, h*w
	for row := rLo; row < rHi; row++ {
		kw := row % p.KernelW
		kh := (row / p.KernelW) % p.KernelH
		ci := row / (p.KernelW * p.KernelH)
		oyLo, oyHi := validRange(kh, p.PadH, p.StrideH, h, oh)
		oxLo, oxHi := validRange(kw, p.PadW, p.StrideW, w, ow)
		dst := od[row*cols : (row+1)*cols]
		if oyLo > oyHi || oxLo > oxHi {
			clear(dst)
			continue
		}
		valid := oxHi - oxLo + 1
		first := (oyLo*p.StrideH+kh-p.PadH)*w + oxLo*p.StrideW + kw - p.PadW
		for ni := 0; ni < n; ni++ {
			img := dst[ni*outPlane : (ni+1)*outPlane]
			clear(img[:oyLo*ow])
			clear(img[(oyHi+1)*ow:])
			src := (ni*c+ci)*inPlane + first
			for o := oyLo * ow; o <= oyHi*ow; o += ow {
				d := img[o : o+ow]
				clear(d[:oxLo])
				clear(d[oxLo+valid:])
				if p.StrideW == 1 {
					copy(d[oxLo:oxLo+valid], xd[src:src+valid])
				} else {
					s := xd[src : src+(valid-1)*p.StrideW+1]
					for j := range d[oxLo : oxLo+valid] {
						d[oxLo+j] = s[j*p.StrideW]
					}
				}
				src += p.StrideH * w
			}
		}
	}
}

// col2imChannels accumulates channels [cLo, cHi) of the output. Every input
// element starts at +0 and receives its taps in (kh, kw) order, the order that
// fixes its bits.
func col2imChannels(xd, cd []float64, p ConvParams, n, c, h, w, oh, ow, cLo, cHi int) {
	colN, plane := n*oh*ow, h*w
	for ci := cLo; ci < cHi; ci++ {
		for ni := 0; ni < n; ni++ {
			clear(xd[(ni*c+ci)*plane : (ni*c+ci+1)*plane])
		}
		for kh := 0; kh < p.KernelH; kh++ {
			oyLo, oyHi := validRange(kh, p.PadH, p.StrideH, h, oh)
			for kw := 0; kw < p.KernelW; kw++ {
				oxLo, oxHi := validRange(kw, p.PadW, p.StrideW, w, ow)
				if oxLo > oxHi || oyLo > oyHi {
					continue
				}
				valid := oxHi - oxLo + 1
				first := (oyLo*p.StrideH+kh-p.PadH)*w + oxLo*p.StrideW + kw - p.PadW
				row := (ci*p.KernelH+kh)*p.KernelW + kw
				src := cd[row*colN : (row+1)*colN]
				for ni := 0; ni < n; ni++ {
					dst := (ni*c+ci)*plane + first
					for o := (ni*oh+oyLo)*ow + oxLo; o <= (ni*oh+oyHi)*ow+oxLo; o += ow {
						s := src[o : o+valid]
						if p.StrideW == 1 {
							d := xd[dst : dst+valid]
							for j := range d {
								d[j] += s[j]
							}
						} else {
							d := xd[dst : dst+(valid-1)*p.StrideW+1]
							for j := range s {
								d[j*p.StrideW] += s[j]
							}
						}
						dst += p.StrideH * w
					}
				}
			}
		}
	}
}

// convLowered is a convolution's three products by the lowering: y = W ×
// im2col(x) reordered to NCHW plus the bias; dw0 + g × colsᵀ; col2im(Wᵀ × g).
func convLowered(x, w, bias, g, dw0 *Tensor, p ConvParams) (y, dw, dx []float64) {
	n, c, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outC := w.shape[0]
	oh, ow := p.OutSize(h, wd)
	plane := oh * ow
	cols := im2col(x, p)
	yc, gc := f64Of(MatMul(w, cols)), make([]float64, outC*n*plane)
	y = make([]float64, n*outC*plane)
	gd := f64Of(g)
	for oc := 0; oc < outC; oc++ {
		for ni := 0; ni < n; ni++ {
			for i := 0; i < plane; i++ {
				v := yc[(oc*n+ni)*plane+i]
				if bias != nil {
					v += bias.data[oc]
				}
				y[(ni*outC+oc)*plane+i] = v
				gc[(oc*n+ni)*plane+i] = gd[(ni*outC+oc)*plane+i]
			}
		}
	}
	gt := FromSlice(gc, outC, n*plane)
	dw = f64Of(dw0)
	for i, v := range f64Of(MatMulTransB(gt, cols)) {
		dw[i] += v
	}
	return y, dw, f64Of(col2im(MatMulTransA(w, gt), n, c, h, wd, p))
}
