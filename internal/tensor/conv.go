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
	checkSameDType("MaxPool2x2Into", out, x)
	if x.dt == Float32 {
		maxPool2x2(out.data32, argmax, x.data32, n*c, h, w, noPoolHead[float32])
		return
	}
	maxPool2x2(out.data, argmax, x.data, n*c, h, w, headMaxPool2x2)
}

// maxPool2x2 pools row by row: the head takes what it can of a row, then the
// Go loop finishes it without a branch on a value — all six tap-to-tap
// comparisons of a window are made as 0/1 (b2i), the winner so far picks
// which of them decides the next step, and the output is the winning tap.
func maxPool2x2[E Elem](od []E, argmax []int, xd []E, planes, h, w int, head func(od []E, argmax []int, r0, r1 []E, top, w int) int) {
	oh, ow := h/2, w/2
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
