package tensor

import (
	"fmt"

	"fedsu/internal/par"
)

// A convolution is three products over NCHW tensors, and each reads its
// operands in place through the micro-kernel's offset tables (matmul.go): no
// column matrix is built. With K = C·KH·KW and tap p = (ci, kh, kw) in
// im2col's row order, and s an output position of one image:
//
//   - Forward: y[n, oc, s] = bias[oc] + Σ_p W[oc, p] · x[n, tap p of s].
//     A is W (arow = oc·K, acol = p). B row p of a strip of W outputs is
//     the input at tap[p] + pos[s]: read in place when the strip lies in one
//     output row at stride 1, otherwise from a K×W panel filled from the
//     input. Tiles land in the NCHW output (ldc = OH·OW) on top of the bias.
//   - Weight gradient: dW[oc, p] += Σ_(n,s) g[n, oc, s] · x[n, tap p of s],
//     computed transposed into ct[p, oc] with A the saved input (arow = tap,
//     acol = pos) and B = gᵀ, built from g in one pass. Images chain through
//     tileSeed, so each sum runs over (n, s) in order as one product did.
//   - Input gradient: per image, four taps at a time, d[p, s] = Σ_oc
//     W[oc, p] · g[n, oc, s] (A = W read transposed, B = g in place) into a
//     4 × OH·OW buffer, whose rows are then added into dx tap by tap: each dx
//     element starts at +0 and takes its taps in (kh, kw) order, col2im's.
//
// Every output element is the ordered sum the im2col lowering computed, so
// the bits are the ones it gave. A padded convolution reads a zero-bordered
// copy of its input (PadInto), which is the size of the input, not K times
// it.

// ConvPlan holds the offset tables of one convolution geometry over one
// input plane. It depends on neither the batch size nor the values, so a
// layer builds it once per input shape.
type ConvPlan struct {
	c, h, w int // input channels and plane
	outC    int
	p       ConvParams
	oh, ow  int
	hp, wp  int // the plane the products read: the input's, padded
	k, mp   int // C·KH·KW, and outC rounded up to whole tiles

	tap     []int // tap p's offset for output 0: ci·hp·wp + kh·wp + kw; whole tiles, the last tap repeated
	ident   []int // p, padded as tap
	pos     []int // output s's offset in the plane: oy·sh·wp + ox·sw
	wrow    []int // oc·K
	gcol    []int // oc·OH·OW
	panel   []int // p·W
	gtOff   []int // s·mp
	scatter []tapRange
}

// tapRange is where one tap's row of the input gradient lands in an image of
// dx: the outputs o0, o0+OW, …, o1 each start a run of valid values, the
// first run adding into dx from dst, the next StrideH input rows further.
// An empty tap has o1 < o0.
type tapRange struct{ dst, o0, o1, valid int }

// NewConvPlan builds the tables of a convolution of geometry p from c input
// channels of an h×w plane to outC output channels.
func NewConvPlan(c, h, w, outC int, p ConvParams) *ConvPlan {
	oh, ow := p.OutSize(h, w)
	k := c * p.KernelH * p.KernelW
	tw := tileCols
	pl := &ConvPlan{
		c: c, h: h, w: w, outC: outC, p: p, oh: oh, ow: ow,
		hp: h + 2*p.PadH, wp: w + 2*p.PadW, k: k, mp: (outC + tw - 1) / tw * tw,
	}
	kp := (k + tileRows - 1) / tileRows * tileRows
	pl.tap, pl.ident = make([]int, kp), make([]int, kp)
	pl.panel, pl.scatter = make([]int, k), make([]tapRange, k)
	for i := range pl.tap {
		q := min(i, k-1)
		ci, kh, kw := q/(p.KernelH*p.KernelW), q/p.KernelW%p.KernelH, q%p.KernelW
		pl.tap[i], pl.ident[i] = (ci*pl.hp+kh)*pl.wp+kw, q
		if i < k {
			pl.panel[i] = i * tw
			pl.scatter[i] = scatterRange(p, ci, kh, kw, h, w, oh, ow)
		}
	}
	pl.pos, pl.gtOff = make([]int, oh*ow), make([]int, oh*ow)
	for s := range pl.pos {
		pl.pos[s] = s/ow*p.StrideH*pl.wp + s%ow*p.StrideW
		pl.gtOff[s] = s * pl.mp
	}
	pl.wrow, pl.gcol = make([]int, outC), make([]int, outC)
	for oc := range pl.wrow {
		pl.wrow[oc], pl.gcol[oc] = oc*k, oc*oh*ow
	}
	return pl
}

// scatterRange is col2im's valid range of tap (ci, kh, kw).
func scatterRange(p ConvParams, ci, kh, kw, h, w, oh, ow int) tapRange {
	oyLo, oyHi := validRange(kh, p.PadH, p.StrideH, h, oh)
	oxLo, oxHi := validRange(kw, p.PadW, p.StrideW, w, ow)
	if oyLo > oyHi || oxLo > oxHi {
		return tapRange{o1: -1}
	}
	return tapRange{
		dst:   ci*h*w + (oyLo*p.StrideH+kh-p.PadH)*w + oxLo*p.StrideW + kw - p.PadW,
		o0:    oyLo*ow + oxLo,
		o1:    oyHi*ow + oxLo,
		valid: oxHi - oxLo + 1,
	}
}

// Fits reports whether x is a 4-D input of the plan's channels and plane.
func (pl *ConvPlan) Fits(x *Tensor) bool {
	return x.Dims() == 4 && x.shape[1] == pl.c && x.shape[2] == pl.h && x.shape[3] == pl.w
}

// Plane returns the input plane the plan was built for.
func (pl *ConvPlan) Plane() (h, w int) { return pl.h, pl.w }

// Padded reports whether the products read a PadInto copy of the input
// rather than the input itself.
func (pl *ConvPlan) Padded() bool { return pl.p.PadH > 0 || pl.p.PadW > 0 }

// checkShape panics unless t has the given shape. The message takes a copy
// of shape, so the slice stays on the caller's stack.
func (pl *ConvPlan) checkShape(op, name string, t *Tensor, shape ...int) {
	if !hasShape(t, shape) {
		panic(fmt.Sprintf("tensor: ConvPlan.%s %s shape %v, want %v", op, name, t.shape, append([]int(nil), shape...)))
	}
}

func hasShape(t *Tensor, shape []int) bool {
	if len(t.shape) != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.shape[i] != d {
			return false
		}
	}
	return true
}

// batch checks src, the tensor the products read — the input, or its PadInto
// copy — and returns its batch size.
func (pl *ConvPlan) batch(op string, src *Tensor) int {
	if src.Dims() != 4 {
		panic(fmt.Sprintf("tensor: ConvPlan.%s input shape %v is not NCHW", op, src.shape))
	}
	n := src.shape[0]
	pl.checkShape(op, "input", src, n, pl.c, pl.hp, pl.wp)
	return n
}

// Forward computes y = W ⊛ src + bias. src is the input, or its PadInto copy
// when the geometry pads; w is (outC, K); bias holds outC values or is nil;
// y is (N, outC, OH, OW) and is fully overwritten.
func (pl *ConvPlan) Forward(y, src, w, bias *Tensor) {
	n := pl.batch("Forward", src)
	pl.checkShape("Forward", "output", y, n, pl.outC, pl.oh, pl.ow)
	pl.checkShape("Forward", "weight", w, pl.outC, pl.k)
	if bias != nil {
		pl.checkShape("Forward", "bias", bias, pl.outC)
	}
	var bd []float64
	if bias != nil {
		bd = bias.data
	}
	convForward(pl, y.data, src.data, w.data, bd, n)
}

// WeightGrad accumulates dw += ∂loss/∂W from src, the tensor Forward read,
// and the output gradient g (N, outC, OH, OW).
func (pl *ConvPlan) WeightGrad(dw, src, g *Tensor) {
	n := pl.batch("WeightGrad", src)
	pl.checkShape("WeightGrad", "gradient", g, n, pl.outC, pl.oh, pl.ow)
	pl.checkShape("WeightGrad", "weight gradient", dw, pl.outC, pl.k)
	convWeightGrad(pl, dw.data, src.data, g.data, n)
}

// InputGrad writes dx = ∂loss/∂x (N, C, H, W), fully overwritten, from the
// weight w and the output gradient g.
func (pl *ConvPlan) InputGrad(dx, w, g *Tensor) {
	if g.Dims() != 4 {
		panic(fmt.Sprintf("tensor: ConvPlan.InputGrad gradient shape %v is not NCHW", g.shape))
	}
	n := g.shape[0]
	pl.checkShape("InputGrad", "gradient", g, n, pl.outC, pl.oh, pl.ow)
	pl.checkShape("InputGrad", "input gradient", dx, n, pl.c, pl.h, pl.w)
	pl.checkShape("InputGrad", "weight", w, pl.outC, pl.k)
	convInputGrad(pl, dx.data, w.data, g.data, n)
}

// convForward splits the batch over the worker pool; images write disjoint
// slabs of y.
func convForward(pl *ConvPlan, y, x, w, bias []float64, n int) {
	if n > 1 && parallelWorthwhile(int64(n)*int64(pl.outC)*int64(pl.k)*int64(pl.oh*pl.ow)) {
		par.Parallelize(n, func(lo, hi int) { convForwardImages(pl, y, x, w, bias, lo, hi) })
		return
	}
	convForwardImages(pl, y, x, w, bias, 0, n)
}

// convForwardImages computes images [lo, hi) strip by strip, so one strip's
// B operand serves every row tile.
func convForwardImages(pl *ConvPlan, y, x, w, bias []float64, lo, hi int) {
	tw, tile := tileCols, microTile
	k, outC, ohow, ow := pl.k, pl.outC, pl.oh*pl.ow, pl.ow
	inVol, full := pl.c*pl.hp*pl.wp, outC-outC%tileRows
	acol := pl.ident[:k]
	mode := tileStore
	if bias != nil {
		mode = tileAddTo
	}
	ps := GetScratch(k, tw)
	panel := ps.data
	for ni := lo; ni < hi; ni++ {
		xn := x[ni*inVol : (ni+1)*inVol]
		yn := y[ni*outC*ohow : (ni+1)*outC*ohow]
		for oc, v := range bias {
			fillSlice(yn[oc*ohow:(oc+1)*ohow], v)
		}
		for j := 0; j < ohow; j += tw {
			cols := min(tw, ohow-j)
			b, boff := panel, pl.panel
			if cols == tw && pl.p.StrideW == 1 && j%ow+tw <= ow {
				b, boff = xn[pl.pos[j]:], pl.tap[:k]
			} else {
				pos := pl.pos[j : j+cols]
				for q, t := range pl.tap[:k] {
					row, src := panel[q*tw:q*tw+cols], xn[t:]
					for jj, o := range pos {
						row[jj] = src[o]
					}
				}
			}
			if cols < tw {
				goBlock(yn[j:], ohow, w, pl.wrow, acol, b, boff, outC, cols, mode)
				continue
			}
			for oc := 0; oc < full; oc += tileRows {
				tile(yn[oc*ohow+j:], ohow, w, pl.wrow[oc:], acol, b, boff, k, mode)
			}
			if full < outC {
				goBlock(yn[full*ohow+j:], ohow, w, pl.wrow[full:], acol, b, boff, outC-full, cols, mode)
			}
		}
	}
	PutScratch(ps)
}

// convWeightGrad builds gᵀ (N·OH·OW × mp, zero columns past outC) in one
// pass over g (transposeGrad), runs the transposed product into ct (split
// over the pool by row tiles, which write disjoint rows) and adds ct's
// transpose into dw.
func convWeightGrad(pl *ConvPlan, dw, x, g []float64, n int) {
	ohow, outC, mp, k, kp := pl.oh*pl.ow, pl.outC, pl.mp, pl.k, len(pl.tap)
	gts, cts := GetScratch(n*ohow, mp), GetScratch(kp, mp)
	gt, ct := gts.data, cts.data
	for ni := 0; ni < n; ni++ {
		transposeGrad(gt[ni*ohow*mp:(ni+1)*ohow*mp], g[ni*outC*ohow:(ni+1)*outC*ohow], outC, ohow, mp)
	}
	if parallelWorthwhile(int64(n) * int64(ohow) * int64(k) * int64(outC)) {
		par.ParallelizeGrain(kp, tileRows, func(lo, hi int) { convWeightGradRows(pl, ct, x, gt, n, lo, hi) })
	} else {
		convWeightGradRows(pl, ct, x, gt, n, 0, kp)
	}
	for oc := 0; oc < outC; oc++ {
		row := dw[oc*k : (oc+1)*k]
		for q := range row {
			row[q] += ct[q*mp+oc]
		}
	}
	PutScratch(gts)
	PutScratch(cts)
}

// transposeGrad writes one image's gradient gn (outC × ohow) into gt as
// gᵀ (ohow × mp, zero past outC): eight channels at a time, each a
// sequential read, into the contiguous run they make of every gᵀ row (a
// whole cache line), then any channels left one by one.
func transposeGrad(gt, gn []float64, outC, ohow, mp int) {
	oc := 0
	for ; oc+8 <= outC; oc += 8 {
		g0 := gn[oc*ohow : (oc+1)*ohow]
		g1, g2, g3 := gn[(oc+1)*ohow:][:len(g0)], gn[(oc+2)*ohow:][:len(g0)], gn[(oc+3)*ohow:][:len(g0)]
		g4, g5, g6, g7 := gn[(oc+4)*ohow:][:len(g0)], gn[(oc+5)*ohow:][:len(g0)], gn[(oc+6)*ohow:][:len(g0)], gn[(oc+7)*ohow:][:len(g0)]
		for s, v := range g0 {
			q := (*[8]float64)(gt[s*mp+oc:])
			q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7] = v, g1[s], g2[s], g3[s], g4[s], g5[s], g6[s], g7[s]
		}
	}
	for s := 0; s < ohow && oc < mp; s++ {
		row := gt[s*mp : (s+1)*mp]
		for c := oc; c < outC; c++ {
			row[c] = gn[c*ohow+s]
		}
		clear(row[outC:])
	}
}

// convWeightGradRows computes the ct rows [lo, hi), whole tiles: image 0
// stores, every later image seeds from what the earlier ones summed.
func convWeightGradRows(pl *ConvPlan, ct, x, gt []float64, n, lo, hi int) {
	tw, tile := tileCols, microTile
	ohow, mp, inVol := pl.oh*pl.ow, pl.mp, pl.c*pl.hp*pl.wp
	for ni := 0; ni < n; ni++ {
		mode := tileSeed
		if ni == 0 {
			mode = tileStore
		}
		xn := x[ni*inVol : (ni+1)*inVol]
		gn := gt[ni*ohow*mp : (ni+1)*ohow*mp]
		for j := 0; j < mp; j += tw {
			for q := lo; q < hi; q += tileRows {
				tile(ct[q*mp+j:], mp, xn, pl.tap[q:], pl.pos, gn[j:], pl.gtOff, ohow, mode)
			}
		}
	}
}

// convInputGrad splits the batch over the worker pool; images write
// disjoint slabs of dx.
func convInputGrad(pl *ConvPlan, dx, w, g []float64, n int) {
	if n > 1 && parallelWorthwhile(int64(n)*int64(pl.outC)*int64(pl.k)*int64(pl.oh*pl.ow)) {
		par.Parallelize(n, func(lo, hi int) { convInputGradImages(pl, dx, w, g, lo, hi) })
		return
	}
	convInputGradImages(pl, dx, w, g, 0, n)
}

// convInputGradImages computes images [lo, hi): four taps' rows of Wᵀ × g at
// a time into buf, then each row added into dx in tap order.
func convInputGradImages(pl *ConvPlan, dx, w, g []float64, lo, hi int) {
	tw, tile := tileCols, microTile
	k, outC, ohow := pl.k, pl.outC, pl.oh*pl.ow
	inVol, full := pl.c*pl.h*pl.w, ohow-ohow%tw
	step, sw := pl.p.StrideH*pl.w, pl.p.StrideW
	bs := GetScratch(tileRows, ohow)
	buf := bs.data
	for ni := lo; ni < hi; ni++ {
		dn := dx[ni*inVol : (ni+1)*inVol]
		gn := g[ni*outC*ohow : (ni+1)*outC*ohow]
		clear(dn)
		for q0 := 0; q0 < k; q0 += tileRows {
			arow := pl.ident[q0:]
			for j := 0; j < full; j += tw {
				tile(buf[j:], ohow, w, arow, pl.wrow, gn[j:], pl.gcol, outC, tileStore)
			}
			if full < ohow {
				goBlock(buf[full:], ohow, w, arow, pl.wrow, gn[full:], pl.gcol, tileRows, ohow-full, tileStore)
			}
			for r := 0; r < tileRows && q0+r < k; r++ {
				scatterTap(dn, buf[r*ohow:(r+1)*ohow], pl.scatter[q0+r], pl.ow, step, sw)
			}
		}
	}
	PutScratch(bs)
}

// scatterTap adds one tap's row of the input gradient into an image of dx,
// col2im's inner loop: at stride 1 every run of the tap in one addRows call
// (the head takes the leading multiple of 4 of each run), otherwise in Go.
func scatterTap(dn, row []float64, t tapRange, ow, step, sw int) {
	if t.o1 < t.o0 {
		return
	}
	if sw == 1 {
		addRows(dn[t.dst:], row[t.o0:], (t.o1-t.o0)/ow+1, t.valid, step, ow)
		return
	}
	dst := t.dst
	for o := t.o0; o <= t.o1; o += ow {
		s := row[o : o+t.valid]
		d := dn[dst : dst+(t.valid-1)*sw+1]
		for j := range s {
			d[j*sw] += s[j]
		}
		dst += step
	}
}

// PadInto writes x (N, C, H, W) into dst (N, C, H+2·padH, W+2·padW)
// surrounded by +0: the input a padded ConvPlan reads.
func PadInto(dst, x *Tensor, padH, padW int) {
	if x.Dims() != 4 || dst.Dims() != 4 || dst.shape[0] != x.shape[0] || dst.shape[1] != x.shape[1] ||
		dst.shape[2] != x.shape[2]+2*padH || dst.shape[3] != x.shape[3]+2*padW {
		panic(fmt.Sprintf("tensor: PadInto dst %v, x %v, pad %dx%d", dst.shape, x.shape, padH, padW))
	}
	planes, h, w, ph, pw := x.shape[0]*x.shape[1], x.shape[2], x.shape[3], padH, padW
	d, xd := dst.data, x.data
	hp, wp := h+2*ph, w+2*pw
	for pl := 0; pl < planes; pl++ {
		dp := d[pl*hp*wp : (pl+1)*hp*wp]
		clear(dp[:ph*wp])
		for y := 0; y < h; y++ {
			row := dp[(ph+y)*wp : (ph+y+1)*wp]
			clear(row[:pw])
			copy(row[pw:pw+w], xd[(pl*h+y)*w:(pl*h+y+1)*w])
			clear(row[pw+w:])
		}
		clear(dp[(ph+h)*wp:])
	}
}
