package tensor

import "fmt"

// ConvParams describes a 2-D convolution or pooling geometry over NCHW
// tensors.
type ConvParams struct {
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
}

// OutSize returns the output spatial size for an input of h×w.
func (p ConvParams) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*p.PadH-p.KernelH)/p.StrideH + 1
	ow = (w+2*p.PadW-p.KernelW)/p.StrideW + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields non-positive output for input %dx%d", p, h, w))
	}
	return oh, ow
}

// validRange returns the [lo, hi] output-coordinate range (inclusive) for
// which o*stride + k - pad lands inside [0, n), clamped to [0, out-1].
// hi < lo means the range is empty.
func validRange(k, pad, stride, n, out int) (lo, hi int) {
	// o*stride + k - pad >= 0  →  o >= ceil((pad-k)/stride)
	lo = divCeil(pad-k, stride)
	if lo < 0 {
		lo = 0
	}
	// o*stride + k - pad <= n-1  →  o <= floor((n-1+pad-k)/stride)
	hi = divFloor(n-1+pad-k, stride)
	if hi > out-1 {
		hi = out - 1
	}
	return lo, hi
}

func divFloor(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func divCeil(a, b int) int { return -divFloor(-a, b) }

// MaxPool2x2Into is the 2×2, stride-2 max-pool of the NCHW tensor x into out,
// (N, C, H/2, W/2), with argmax[i] the flat index into x of the tap out[i]
// copies; an odd last row or column lies in no window. Taps are compared
// a b / c d, in that order, and a later one wins only when strictly greater:
// ties keep the earliest tap and a NaN wins only as the first.
func MaxPool2x2Into(out *Tensor, argmax []int, x *Tensor) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if len(out.shape) != 4 || out.shape[0] != n || out.shape[1] != c || out.shape[2] != h/2 || out.shape[3] != w/2 || len(argmax) != out.Len() {
		panic(fmt.Sprintf("tensor: MaxPool2x2Into out %v with %d argmax slots, input %v", out.shape, len(argmax), x.shape))
	}
	maxPool2x2(out.data, argmax, x.data, n*c, h, w)
}

// maxPool2x2 pools row by row: the head takes what it can of a row, then the
// Go loop finishes it without a branch on a value — all six tap-to-tap
// comparisons of a window are made as 0/1 (b2i), the winner so far picks
// which of them decides the next step, and the output is the winning tap.
func maxPool2x2(od []float64, argmax []int, xd []float64, planes, h, w int) {
	oh, ow, head := h/2, w/2, headMaxPool2x2
	oi := 0
	for pl := 0; pl < planes; pl++ {
		for oy := 0; oy < oh; oy++ {
			top := (pl*h + 2*oy) * w
			r0 := xd[top : top+2*ow]
			r1 := xd[top+w : top+w+2*ow]
			orow, arow := od[oi:oi+ow], argmax[oi:oi+ow]
			for ox := head(orow, arow, r0, r1, top, w); ox < len(orow); ox++ {
				a, b, c, d := r0[2*ox], r0[2*ox+1], r1[2*ox], r1[2*ox+1]
				// t is the winning tap so far: 0 a, 1 b, 2 c, 3 d.
				t := b2i(b > a)
				cw := (b2i(c > a) | b2i(c > b)<<1) >> t & 1 // c > tap t
				t = t&^-cw | cw<<1
				dw := (b2i(d > a) | b2i(d > b)<<1 | b2i(d > c)<<2) >> t & 1 // d > tap t
				t |= 3 & -dw
				idx := top + 2*ox + (t & 1) + (t>>1)*w
				orow[ox], arow[ox] = xd[idx], idx
			}
			oi += ow
		}
	}
}

// MaxPool2x2Backward writes dx (N, C, H, W), fully overwritten, from the
// gradient g of MaxPool2x2Into's output and the argmax it returned. 2×2/2
// windows do not overlap, so every tap is written once: +0, and 0 + g at
// the window's argmax — the bits that zeroing dx and accumulating g into it
// stored (0 + −0 is +0; a NaN comes back quieted), in one pass instead of
// two. Only an odd plane's last row and column lie in no window; they are
// cleared.
func MaxPool2x2Backward(dx, g *Tensor, argmax []int) {
	n, c, h, w := dx.shape[0], dx.shape[1], dx.shape[2], dx.shape[3]
	if len(g.shape) != 4 || g.shape[0] != n || g.shape[1] != c || g.shape[2] != h/2 || g.shape[3] != w/2 || len(argmax) != g.Len() {
		panic(fmt.Sprintf("tensor: MaxPool2x2Backward g %v with %d argmax slots, input gradient %v", g.shape, len(argmax), dx.shape))
	}
	maxPool2x2Backward(dx.data, g.data, argmax, n*c, h, w)
}

// maxPool2x2Backward goes plane by plane: the head takes what it can of
// every row pair, then the Go loop finishes each.
func maxPool2x2Backward(dd, gd []float64, argmax []int, planes, h, w int) {
	oh, ow, head := h/2, w/2, headMaxPool2x2Back
	for pl := 0; pl < planes; pl++ {
		plane := dd[pl*h*w : (pl+1)*h*w]
		g, a := gd[pl*oh*ow:(pl+1)*oh*ow], argmax[pl*oh*ow:(pl+1)*oh*ow]
		ox0 := head(g, a, plane, pl*h*w, w, ow, oh)
		for oy := 0; oy < oh && (ox0 < ow || w%2 != 0); oy++ {
			r0, r1 := plane[2*oy*w:(2*oy+1)*w], plane[(2*oy+1)*w:(2*oy+2)*w]
			clear(r0[2*ow:])
			clear(r1[2*ow:])
			gr, ar := g[oy*ow:(oy+1)*ow], a[oy*ow:(oy+1)*ow]
			for ox := ox0; ox < ow; ox++ {
				r0[2*ox], r0[2*ox+1], r1[2*ox], r1[2*ox+1] = 0, 0, 0, 0
				dd[ar[ox]] = 0 + gr[ox]
			}
		}
		clear(plane[2*oh*w:])
	}
}
