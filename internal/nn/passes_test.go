package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedsu/internal/tensor"
)

// The step passes against the retired loops of passes_ref_test.go, bit for
// bit: ReLU forward and backward, MaxPool2D forward (values
// and argmax) and backward on the 2×2/2 path and the general one, and a
// whole Conv2D against its im2col lowering. Operands are normal draws with
// small integers among them (ties for the pool) and, one value in four, a
// special bit pattern: quiet NaNs of distinct payload and sign, a signalling
// NaN, ±0, ±Inf, subnormals. A pass that rounds, quiets or re-signs a value
// it should only move, or adds a gradient in another order, fails here.

var (
	passSpecials64 = []uint64{
		0, 1 << 63, // ±0
		0x7ff8_0000_0000_0a0a, 0xfff8_0000_0000_0b0b, 0x7ff0_0000_0000_0c0c, // quiet NaNs of either sign, a signalling one
		0x7ff0_0000_0000_0000, 0xfff0_0000_0000_0000, // ±Inf
		1, 0x800f_ffff_ffff_ffff, // the smallest subnormal, the most negative one
	}
)

// fromBits reads a value from the low 8 bytes of raw.
func fromBits(raw []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(raw)) }

// passValues draws n values as the file comment says, then lays raw over
// positions 5i mod n, one value per 8 bytes.
func passValues(rng *rand.Rand, n int, raw []byte) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(8) {
		case 0, 1:
			out[i] = math.Float64frombits(passSpecials64[rng.Intn(len(passSpecials64))])
		case 2:
			out[i] = float64(rng.Intn(3) - 1)
		default:
			out[i] = rng.NormFloat64()
		}
	}
	for i := 0; 8*i+8 <= len(raw) && n > 0; i++ {
		out[(5*i)%n] = fromBits(raw[8*i:])
	}
	return out
}

func bitsOf(v float64) uint64 { return math.Float64bits(v) }

func sameElems(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s: element %d of %d is %#x, the retired loop gives %#x", what, i, len(want), bitsOf(got[i]), bitsOf(want[i]))
		}
	}
}

// passCase is an NCHW input and a convolution geometry; the pools run at
// window KernelH, stride StrideH, and at 2×2/2.
type passCase struct {
	n, c, h, w int
	p          tensor.ConvParams
}

func (pc passCase) String() string {
	return fmt.Sprintf("%dx%dx%dx%d k%dx%d s%dx%d p%dx%d", pc.n, pc.c, pc.h, pc.w,
		pc.p.KernelH, pc.p.KernelW, pc.p.StrideH, pc.p.StrideW, pc.p.PadH, pc.p.PadW)
}

// checkPasses runs every pass of one case against its reference.
func checkPasses(t *testing.T, pc passCase, seed int64, raw []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n, c, h, w := pc.n, pc.c, pc.h, pc.w
	vol := n * c * h * w
	what := fmt.Sprintf("%v seed %d", pc, seed)
	x := tensor.FromSlice(passValues(rng, vol, raw), n, c, h, w)
	xd := x.Data()

	relu := NewReLU()
	wantY, mask := make([]float64, vol), make([]bool, vol)
	reluForwardRef(wantY, mask, xd)
	sameElems(t, "ReLU forward "+what, relu.Forward(x, true).Data(), wantY)
	g := passValues(rng, vol, raw)
	wantG := make([]float64, vol)
	reluBackwardRef(wantG, mask, g)
	sameElems(t, "ReLU backward "+what, relu.Backward(tensor.FromSlice(g, n, c, h, w)).Data(), wantG)

	for _, pg := range [][2]int{{pc.p.KernelH, pc.p.StrideH}, {2, 2}} {
		window, stride := pg[0], pg[1]
		if window > h || window > w {
			continue
		}
		p := tensor.ConvParams{KernelH: window, KernelW: window, StrideH: stride, StrideW: stride}
		oh, ow := p.OutSize(h, w)
		pool := NewMaxPool2D(window, stride)
		pwhat := fmt.Sprintf("MaxPool2D(%d, %d) %s", window, stride, what)
		wantOut, wantArg := make([]float64, n*c*oh*ow), make([]int, n*c*oh*ow)
		maxPoolForwardRef(wantOut, wantArg, xd, p, n, c, h, w)
		sameElems(t, pwhat+" forward", pool.Forward(x, true).Data(), wantOut)
		for i, a := range pool.argmax {
			if a != wantArg[i] {
				t.Fatalf("%s: argmax %d is %d, the retired loop gives %d", pwhat, i, a, wantArg[i])
			}
		}
		gp := passValues(rng, len(wantOut), raw)
		wantDx := make([]float64, vol)
		maxPoolBackwardRef(wantDx, wantArg, gp)
		sameElems(t, pwhat+" backward", pool.Backward(tensor.FromSlice(gp, n, c, oh, ow)).Data(), wantDx)
	}

	checkConv(t, pc, rng, x, g, what)
	finite := func(v []float64) []float64 {
		for i, e := range v {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	checkConv(t, pc, rng, tensor.FromSlice(finite(append([]float64(nil), xd...)), n, c, h, w), finite(g), what+" finite")
}

// sameElemsOrNaN is sameElems except that a NaN matches any NaN: which
// operand's payload a product or a sum forwards follows operand order, and
// the products do not keep the lowering's operand roles (DESIGN.md §5c).
func sameElemsOrNaN(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, the lowering gives %d", what, len(got), len(want))
	}
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s: element %d of %d is %#x, the lowering gives %#x", what, i, len(want), bitsOf(got[i]), bitsOf(want[i]))
		}
	}
}

// checkConv holds Conv2D on input x to convRef for outC ∈ {1, 3, 5, 17}:
// Forward without and with the bias, then Backward of gradient values drawn
// from gv (cycled to the output's size) onto nonzero dW and db, once with
// the input gradient and once as a noInputGrad layer, which must return nil
// and leave the parameter gradients as the other does.
func checkConv(t *testing.T, pc passCase, rng *rand.Rand, x *tensor.Tensor, gv []float64, what string) {
	t.Helper()
	n, c, h, w := pc.n, pc.c, pc.h, pc.w
	oh, ow := pc.p.OutSize(h, w)
	k := c * pc.p.KernelH * pc.p.KernelW
	normal := func(m int) []float64 {
		v := make([]float64, m)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for _, outC := range []int{1, 3, 5, 17} {
		wt, bias, dW0, db0 := normal(outC*k), normal(outC), normal(outC*k), normal(outC)
		g := make([]float64, n*outC*oh*ow)
		for i := range g {
			g[i] = gv[i%len(gv)]
		}
		y, yb, dW, db, dx := convRef(x.Data(), wt, bias, g, dW0, db0, pc.p, n, c, h, w, outC)
		for _, useBias := range []bool{false, true} {
			for _, skip := range []bool{false, true} {
				cv := &Conv2D{inC: c, outC: outC, p: pc.p, useBias: useBias, noInputGrad: skip}
				cv.weight = newParam("weight", outC, k)
				copy(cv.weight.Value.Data(), wt)
				copy(cv.weight.Grad.Data(), dW0)
				want := y
				if useBias {
					cv.bias = newParam("bias", outC)
					copy(cv.bias.Value.Data(), bias)
					copy(cv.bias.Grad.Data(), db0)
					want = yb
				}
				cwhat := fmt.Sprintf("Conv2D outC=%d bias=%v noInputGrad=%v %s", outC, useBias, skip, what)
				cv.out = tensor.New(n, outC, oh, ow)
				cv.dx = tensor.New(n, c, h, w)
				cv.out.Fill(math.NaN()) // outputs the passes must overwrite everywhere
				cv.dx.Fill(math.NaN())
				sameElemsOrNaN(t, cwhat+" forward", cv.Forward(x, true).Data(), want)
				gotDx := cv.Backward(tensor.FromSlice(g, n, outC, oh, ow))
				sameElemsOrNaN(t, cwhat+" dW", cv.weight.Grad.Data(), dW)
				if useBias {
					sameElemsOrNaN(t, cwhat+" db", cv.bias.Grad.Data(), db)
				}
				if skip {
					if gotDx != nil {
						t.Fatalf("%s: a noInputGrad layer returned an input gradient", cwhat)
					}
					continue
				}
				sameElemsOrNaN(t, cwhat+" dx", gotDx.Data(), dx)
			}
		}
	}
}

func conv(kh, kw, sh, sw, ph, pw int) tensor.ConvParams {
	return tensor.ConvParams{KernelH: kh, KernelW: kw, StrideH: sh, StrideW: sw, PadH: ph, PadW: pw}
}

// passCases are the shapes and geometries TestLayerPassesMatchReference runs
// every pass over.
var passCases = []passCase{
	{8, 1, 28, 28, conv(5, 5, 1, 1, 0, 0)}, // the CNN's first convolution
	{8, 8, 12, 12, conv(5, 5, 1, 1, 0, 0)}, // its second
	{8, 8, 24, 24, conv(2, 2, 2, 2, 0, 0)}, // its first pool's input
	{2, 4, 8, 8, conv(3, 3, 1, 1, 1, 1)},   // ResNet's padded 3×3
	{2, 4, 8, 8, conv(3, 3, 2, 2, 1, 1)},   // and its strided one
	{2, 4, 7, 7, conv(1, 1, 2, 2, 0, 0)},   // the 1×1 projection, odd plane
	{1, 2, 9, 7, conv(2, 2, 2, 2, 0, 0)},   // odd height and width under 2×2/2
	{3, 2, 5, 6, conv(3, 3, 2, 2, 0, 0)},   // overlapping pool windows
	{1, 1, 3, 3, conv(3, 3, 1, 1, 2, 2)},   // padding past every tap's reach
	{1, 1, 5, 7, conv(2, 4, 2, 1, 0, 1)},   // rectangular kernel and stride
	{2, 3, 1, 1, conv(1, 1, 1, 1, 0, 0)},   // one pixel
	{2, 1, 4, 9, conv(2, 3, 1, 3, 1, 0)},   // stride wider than the kernel
	{1, 2, 16, 16, conv(3, 3, 1, 1, 1, 1)}, // a long stride-1 row
	{1, 1, 30, 33, conv(5, 5, 1, 1, 2, 2)}, // and a longer one, padded
	{1, 1, 11, 11, conv(3, 3, 3, 3, 0, 0)}, // non-overlapping 3×3 windows
	{2, 2, 6, 6, conv(1, 1, 1, 1, 0, 0)},   // 1×1, every tap full width
	{1, 3, 10, 10, conv(4, 4, 1, 1, 3, 3)}, // pad 3 of a 4-wide kernel
	{1, 1, 13, 2, conv(2, 2, 2, 2, 0, 0)},  // a plane two wide
	{1, 1, 2, 13, conv(2, 2, 2, 2, 0, 0)},  // and two high
	{3, 1, 12, 12, conv(2, 2, 1, 1, 0, 0)}, // 2×2 windows at stride 1
	{1, 2, 8, 8, conv(8, 8, 1, 1, 0, 0)},   // a window the size of the plane
	{2, 2, 7, 9, conv(3, 2, 3, 2, 1, 1)},   // everything odd
	{1, 1, 17, 17, conv(5, 5, 4, 4, 2, 2)}, // large stride, padded
	{4, 3, 6, 5, conv(2, 2, 2, 2, 0, 0)},   // odd width only
	{4, 3, 5, 6, conv(2, 2, 2, 2, 0, 0)},   // odd height only
	{1, 1, 1, 40, conv(1, 3, 1, 1, 0, 1)},  // one row
	{1, 1, 40, 1, conv(3, 1, 1, 1, 1, 0)},  // one column
	{2, 2, 3, 3, conv(3, 3, 1, 1, 0, 0)},   // one output per image
	{1, 4, 4, 4, conv(2, 2, 2, 2, 1, 1)},   // padded 2×2/2
	{1, 1, 9, 9, conv(5, 5, 2, 2, 4, 4)},   // pad one short of the kernel
	{1, 1, 24, 24, conv(2, 2, 2, 2, 0, 0)}, // the CNN's pool, one plane
	{8, 16, 8, 8, conv(2, 2, 2, 2, 0, 0)},  // its second pool's input
	{1, 2, 6, 6, conv(3, 3, 2, 2, 2, 2)},   // stride 2, pad 2
	{1, 1, 8, 8, conv(1, 1, 3, 3, 0, 0)},   // 1×1 at stride 3
	{2, 1, 10, 10, conv(5, 5, 5, 5, 0, 0)}, // non-overlapping 5×5
}

func TestLayerPassesMatchReference(t *testing.T) {
	for _, pc := range passCases {
		for seed := int64(1); seed <= 3; seed++ {
			checkPasses(t, pc, seed, nil)
		}
	}
}

// TestLayerPassCasesReachEveryPath holds passCases to the paths the passes
// split into, so a geometry dropped from the list cannot quietly leave one
// untested. col2im's scatter at stride 1 adds each tap's runs with a head
// that takes the leading multiple of 4 values and a Go loop for the rest: a
// run of 1–3 values is the Go loop's alone, a multiple of 4 the head's alone,
// and a longer run that is not a multiple of 4 both; a wider stride is Go
// only. The 2×2/2 pool's backward head takes four windows a step: an odd
// plane (a last row or column in no window) with a head step, an even one,
// and a row whose window count is not a multiple of 4.
func TestLayerPassCasesReachEveryPath(t *testing.T) {
	reached := map[string]bool{}
	for _, pc := range passCases {
		oh, ow := pc.p.OutSize(pc.h, pc.w)
		if pc.p.StrideW > 1 {
			reached["scatter at stride 2 or more"] = true
		}
		for kh := 0; kh < pc.p.KernelH && pc.p.StrideW == 1; kh++ {
			if lo, hi := validRangeRef(kh, pc.p.PadH, pc.p.StrideH, pc.h, oh); lo > hi {
				continue
			}
			for kw := 0; kw < pc.p.KernelW; kw++ {
				lo, hi := validRangeRef(kw, pc.p.PadW, 1, pc.w, ow)
				switch run := hi - lo + 1; {
				case run >= 1 && run <= 3:
					reached["scatter run of 1-3 values"] = true
				case run > 0 && run%4 == 0:
					reached["scatter run of a multiple of 4"] = true
				case run > 4:
					reached["scatter run over 4, not a multiple of 4"] = true
				}
			}
		}
		if pc.h < 2 || pc.w < 2 {
			continue
		}
		if pw := pc.w / 2; pw >= 4 && (pc.h%2 == 1 || pc.w%2 == 1) {
			reached["pool backward head on an odd plane"] = true
		} else if pw >= 4 {
			reached["pool backward head on an even plane"] = true
		}
		if pc.w/2%4 != 0 {
			reached["pool backward windows past the head"] = true
		}
	}
	for _, path := range []string{
		"scatter at stride 2 or more", "scatter run of 1-3 values", "scatter run of a multiple of 4",
		"scatter run over 4, not a multiple of 4", "pool backward head on an odd plane",
		"pool backward head on an even plane", "pool backward windows past the head",
	} {
		if !reached[path] {
			t.Errorf("no case in passCases reaches %s", path)
		}
	}
}

// FuzzLayerPasses fuzzes the NCHW shape, the convolution geometry (kernel,
// stride and pad per axis), the seed and raw bit patterns laid over every
// operand.
func FuzzLayerPasses(f *testing.F) {
	f.Add(uint32(0), uint16(0), int64(1), []byte{})
	f.Add(uint32(0x0b_b2_d), uint16(0x0001), int64(2), binary.LittleEndian.AppendUint64(nil, 0x7ff0_0000_0000_0c0c))
	f.Add(uint32(0x17_17_1), uint16(0x0a4f), int64(3), []byte{0, 0, 0, 0x80, 1, 0, 0x80, 0x7f, 0x0a, 0x0a, 0xc0, 0xff})
	f.Add(uint32(0x07_08_6), uint16(0x0555), int64(4), binary.LittleEndian.AppendUint64(nil, 1<<63))
	f.Fuzz(func(t *testing.T, shape uint32, geom uint16, seed int64, raw []byte) {
		pc := passCase{
			n: 1 + int(shape%3), c: 1 + int(shape>>2%4), h: 1 + int(shape>>4%24), w: 1 + int(shape>>12%24),
			p: conv(1+int(geom%5), 1+int(geom>>3%5), 1+int(geom>>6%3), 1+int(geom>>8%3), int(geom>>10%3), int(geom>>12%3)),
		}
		if pc.h+2*pc.p.PadH < pc.p.KernelH || pc.w+2*pc.p.PadW < pc.p.KernelW {
			return
		}
		checkPasses(t, pc, seed, raw)
	})
}

// TestLayerGeometryValidation: a window or stride below 1 and a negative pad
// are refused when the layer is built. Before, NewMaxPool2D(0, 2) pooled to
// zeros with argmax −1 and its Backward indexed −1, and a zero stride built
// fine and divided by zero in the first Forward.
//
// Conv2D.Forward refuses an input that is not NCHW with the layer's channel
// count: the products read the input through offset tables built for that
// count, so a narrower input would be read past its channels.
func TestLayerGeometryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name  string
		build func()
	}{
		{"max-pool window 0", func() { NewMaxPool2D(0, 2) }},
		{"max-pool stride 0", func() { NewMaxPool2D(2, 0) }},
		{"avg-pool window 0", func() { NewAvgPool2D(0, 2) }},
		{"avg-pool stride 0", func() { NewAvgPool2D(2, 0) }},
		{"conv kernel 0", func() { NewConv2D(rng, 1, 1, 0) }},
		{"conv stride 0", func() { NewConv2D(rng, 1, 1, 3, WithStride(0)) }},
		{"conv pad -1", func() { NewConv2D(rng, 1, 1, 3, WithPadding(-1)) }},
		{"conv input of fewer channels", func() { NewConv2D(rng, 3, 2, 3).Forward(tensor.New(2, 2, 8, 8), true) }},
		{"conv input of more channels", func() { NewConv2D(rng, 3, 2, 3).Forward(tensor.New(2, 4, 8, 8), true) }},
		{"conv input not 4-D", func() { NewConv2D(rng, 3, 2, 3).Forward(tensor.New(2, 3, 64), true) }},
		{"conv input 5-D", func() { NewConv2D(rng, 1, 2, 3).Forward(tensor.New(1, 1, 1, 8, 8), true) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "nn: ") {
					t.Fatalf("built without an nn: panic (recovered %q)", msg)
				}
			}()
			c.build()
		})
	}
}
