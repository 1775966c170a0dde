package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Element-wise float64 kernels (contract: DESIGN §5c, "Element-wise
// kernels"): every lane is the one IEEE operation of the Go statement in the
// function's tail loop, operands in that order — when both are NaN, x86
// returns the first one's payload — so the assembly, the Go loops and any
// split between them give the same bits. Operands are cut to len(dst).

// The assembly heads: each works a leading multiple of 16 elements and
// returns its length. Zero here; kernel_amd64.go installs the AVX2 ones
// (amd64 && !purego). Nothing else but a test reassigns them.
var (
	headAddTo     = func(dst, src []float64) int { return 0 }
	headAddPair   = func(dst, a, b []float64) int { return 0 }
	headAddPairTo = func(dst, a, b []float64) int { return 0 }
	headScale     = func(dst []float64, s float64) int { return 0 }
)

// AddTo sets dst[i] = dst[i] + src[i].
func AddTo(dst, src []float64) {
	src = src[:len(dst)]
	for i := headAddTo(dst, src); i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// AddPair sets dst[i] = a[i] + b[i]; dst may be a or b itself.
func AddPair(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := headAddPair(dst, a, b); i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// AddPairTo sets dst[i] = dst[i] + (a[i] + b[i]): AddPair into a temporary,
// then AddTo, in one pass.
func AddPairTo(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	// The pair sum goes through memory: the compiler would otherwise keep it
	// in the register and make it the second add's first operand.
	var t [64]float64
	for i := headAddPairTo(dst, a, b); i < len(dst); i += len(t) {
		d := dst[i:min(i+len(t), len(dst))]
		for j := range d {
			t[j] = a[i+j] + b[i+j]
		}
		for j := range d {
			d[j] += t[j]
		}
	}
}

// Scale sets dst[i] = dst[i] * s.
func Scale(dst []float64, s float64) {
	for i := headScale(dst, s); i < len(dst); i++ {
		dst[i] *= s
	}
}

// The SGD heads work the leading multiple of 16 elements of one parameter,
// and the row-add head the leading multiple of 4 columns of every row (its
// only caller is col2im's scatter, convolve.go, whose rows are the CNN's 8
// wide).
var (
	headSGD      = func(v, g []float64, lr float64) int { return 0 }
	headSGDDecay = func(v, g []float64, lr, wd float64) int { return 0 }
	headAddRows  = func(dst, src []float64, rows, n, dstep, sstep int) int { return 0 }
)

// SGDUpdate is one SGD step of a parameter v with gradient g: with a weight
// decay wd ≠ 0, g[i] = g[i] + v[i]·wd (g is written: the decayed gradient is
// what the step applied) and then v[i] = v[i] − g[i]·lr;
// with wd = 0, only v[i] = v[i] − g[i]·lr, and g is only read — g + 0·v would
// turn an Inf in v into a NaN in g. v and g do not overlap.
//
// Every element is the update's two passes over the whole parameter used to
// make, bits and first sources included (of two NaNs x86 returns the first
// source's payload; the compiler made those loops' first sources g in the
// decay's add and in the step's product, v in the decay's product). The head
// makes both on an element in one visit. The Go loop does the same 64
// elements at a time; the decayed term goes through memory, as AddPairTo's
// pair sum does, so the add keeps g as its first source.
func SGDUpdate(v, g []float64, lr, wd float64) {
	g = g[:len(v)]
	if wd == 0 {
		for i := headSGD(v, g, lr); i < len(v); i++ {
			v[i] -= g[i] * lr
		}
		return
	}
	var t [64]float64
	for i := headSGDDecay(v, g, lr, wd); i < len(v); i += len(t) {
		vb := v[i:min(i+len(t), len(v))]
		gb := g[i : i+len(vb)]
		for j, x := range vb {
			t[j] = x * wd
		}
		for j := range gb {
			gb[j] += t[j]
		}
		for j := range vb {
			vb[j] -= gb[j] * lr
		}
	}
}

// addRows sets dst[r·dstep+j] = dst[r·dstep+j] + src[r·sstep+j] for r < rows
// and j < n: the head takes the leading columns of every row, the Go loop
// the rest of each. dstep ≥ n, so no two rows of dst overlap and the split
// cannot change which add an element sees first.
func addRows(dst, src []float64, rows, n, dstep, sstep int) {
	j0 := headAddRows(dst, src, rows, n, dstep, sstep)
	if j0 == n {
		return
	}
	for r := 0; r < rows; r++ {
		d, s := dst[r*dstep+j0:r*dstep+n], src[r*sstep+j0:r*sstep+n]
		for j := range d {
			d[j] += s[j]
		}
	}
}

// The float64↔float32 members (the default wire's conversions; contract:
// DESIGN §5c, "Element-wise kernels"). The packed converts round the way the
// scalar ones do — the same MXCSR nearest-even, NaNs quieted with the payload
// cut or padded, overflow to ±Inf, subnormals kept — so a lane's bits do not
// depend on who converted it. The convert heads work a leading multiple of 16
// values; maskWord is replaced whole, as the matmul tile is.
var (
	maskWord     = goMaskWord
	headNarrowLE = func(dst []byte, src []float64) int { return 0 }
	headWidenLE  = func(dst []float64, src []byte) int { return 0 }
)

// NonzeroMask packs the != 0 tests of c into a word, bit j for c[j]: a NaN is
// nonzero, ±0 is zero.
func NonzeroMask(c *[64]float64) uint64 { return maskWord(c) }

// nonzeroBit is 1 for v != 0 and 0 for ±0, without a branch: shifting the
// sign out leaves zero for exactly ±0 (a NaN is nonzero, as under !=).
func nonzeroBit(v float64) uint64 {
	x := math.Float64bits(v) << 1
	return (x | -x) >> 63
}

// goMaskWord builds the word in two halves, so their shift-or chains overlap.
func goMaskWord(c *[64]float64) uint64 {
	var lo, hi uint64
	for j, v := range c[:32] {
		lo = lo>>1 | nonzeroBit(v)<<63
		hi = hi>>1 | nonzeroBit(c[32+j])<<63
	}
	return lo>>32 | hi
}

// NarrowLE stores float32(src[i]) at dst[4i:4i+4], little-endian.
func NarrowLE(dst []byte, src []float64) {
	dst = dst[:4*len(src)]
	for i := headNarrowLE(dst, src); i < len(src); i++ {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(src[i])))
	}
}

// WidenLE sets dst[i] to the little-endian float32 at src[4i:4i+4], widened.
func WidenLE(dst []float64, src []byte) {
	src = src[:4*len(dst)]
	for i := headWidenLE(dst, src); i < len(dst); i++ {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
}

// The ReLU pair (contract: DESIGN §5c, "Branch-free step passes"). A lane
// keeps a value's bits where a test against +0 holds and is +0 where it does
// not, through a mask — bits & -(v > 0) — never a branch on the value. The
// test is the ordered `>`, false for NaN and for both zeros, so a lane is
// exactly the scalar `if !(v > 0) { v = 0 }`. The heads are VCMPPD GT_OQ
// and VANDPD; the Go loops are their tails and the purego lane.
var (
	headReLU     = func(dst, x []float64) int { return 0 }
	headReLUGate = func(dst, g, y []float64) int { return 0 }
)

// The 2×2/2 max-pool head (contract: conv.go, MaxPool2x2Into) pools the
// leading len(od)&^3 windows of one output row, four to a step, and returns
// that count; the AVX2 one keeps the Go rule with VCMPPD GT_OQ and VBLENDVPD.
var headMaxPool2x2 = func(od []float64, argmax []int, r0, r1 []float64, top, w int) int { return 0 }

// The 2×2/2 max-pool backward head (contract: conv.go, MaxPool2x2Backward)
// writes the leading ow&^3 windows of each of rows row pairs, four to a
// step, and returns that count: row pair r is dd[2w·r:2w·(r+1)], its first
// value at flat index top + 2w·r, and its gradients and argmaxes are
// g[ow·r:ow·(r+1)] and argmax[ow·r:ow·(r+1)]. Every argmax is one of its
// window's four taps.
var headMaxPool2x2Back = func(g []float64, argmax []int, dd []float64, top, w, ow, rows int) int { return 0 }

// ReLUInto sets dst[i] to x[i] where x[i] > 0 and to +0 everywhere else.
func ReLUInto(dst, x *Tensor) {
	checkSameLen("ReLUInto", dst, x)
	relu(dst.data, x.data)
}

// ReLUGateInto sets dst[i] to g[i] where y[i] > 0 and to +0 everywhere else:
// ReLU's input gradient gated on the layer's output y, which is positive
// exactly where the input was (it is the input there and +0 elsewhere).
func ReLUGateInto(dst, g, y *Tensor) {
	checkSameLen("ReLUGateInto", dst, g, y)
	reluGate(dst.data, g.data, y.data)
}

func checkSameLen(op string, ts ...*Tensor) {
	for _, t := range ts[1:] {
		if t.Len() != ts[0].Len() {
			panic(fmt.Sprintf("tensor: %s length mismatch (%d vs %d)", op, ts[0].Len(), t.Len()))
		}
	}
}

// b2i is 1 for true and 0 for false; the compiler reads the flag, it does
// not branch.
func b2i(c bool) int {
	if c {
		return 1
	}
	return 0
}

func relu(dst, x []float64) {
	x = x[:len(dst)]
	for i := headReLU(dst, x); i < len(dst); i++ {
		v := x[i]
		dst[i] = math.Float64frombits(math.Float64bits(v) & -uint64(b2i(v > 0)))
	}
}

func reluGate(dst, g, y []float64) {
	g, y = g[:len(dst)], y[:len(dst)]
	for i := headReLUGate(dst, g, y); i < len(dst); i++ {
		dst[i] = math.Float64frombits(math.Float64bits(g[i]) & -uint64(b2i(y[i] > 0)))
	}
}
