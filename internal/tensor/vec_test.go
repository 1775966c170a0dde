package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The element-wise kernels against the loops they replace. Three
// implementations of each operation must agree on every bit: the selected one
// (the AVX2 heads plus the Go tail on amd64, the Go loops under purego and
// elsewhere), the Go loops alone, and a naive loop over refAdd/refMul/refSub
// written here — for AddPairTo, the two unfused passes it stands for; for
// SGDUpdate, the two passes of the update it replaced; for the row add,
// col2im's scatter one element at a time.

// withGoVec runs f with the assembly heads uninstalled.
func withGoVec(f func()) {
	p1, p2, p3, p4 := headAddTo, headAddPair, headAddPairTo, headScale
	headAddTo = func(dst, src []float64) int { return 0 }
	headAddPair = func(dst, a, b []float64) int { return 0 }
	headAddPairTo = headAddPair
	headScale = func(dst []float64, s float64) int { return 0 }
	c1, c2, c3 := maskWord, headNarrowLE, headWidenLE
	maskWord = goMaskWord
	headNarrowLE = func([]byte, []float64) int { return 0 }
	headWidenLE = func([]float64, []byte) int { return 0 }
	r1, r2, r3 := headReLU, headReLUGate, headMaxPool2x2
	headReLU = func(dst, x []float64) int { return 0 }
	headReLUGate = func(dst, g, y []float64) int { return 0 }
	headMaxPool2x2 = func([]float64, []int, []float64, []float64, int, int) int { return 0 }
	s1, s2, s3, s4 := headSGD, headSGDDecay, headAddRows, headMaxPool2x2Back
	headSGD = func(v, g []float64, lr float64) int { return 0 }
	headSGDDecay = func(v, g []float64, lr, wd float64) int { return 0 }
	headAddRows = func(dst, src []float64, rows, n, dstep, sstep int) int { return 0 }
	headMaxPool2x2Back = func([]float64, []int, []float64, int, int, int, int) int { return 0 }
	defer func() {
		headAddTo, headAddPair, headAddPairTo, headScale = p1, p2, p3, p4
		maskWord, headNarrowLE, headWidenLE = c1, c2, c3
		headReLU, headReLUGate, headMaxPool2x2 = r1, r2, r3
		headSGD, headSGDDecay, headAddRows, headMaxPool2x2Back = s1, s2, s3, s4
	}()
	f()
}

type vecOp struct {
	name  string
	run   func(dst, a, b []float64, s float64)
	naive func(dst, a, b []float64, s float64)
}

// refAdd and refMul are the hardware's operations with the NaN rule written
// out — of two NaNs the first operand's, quieted (x86; arm64 agrees for quiet
// NaNs) — because which operand a Go `x + y` makes the first source is the
// compiler's choice, and the reference must not make it too.
func refAdd(x, y float64) float64 {
	if f, ok := firstNaN(x, y); ok {
		return f
	}
	return x + y
}

func refMul(x, y float64) float64 {
	if f, ok := firstNaN(x, y); ok {
		return f
	}
	return x * y
}

func refSub(x, y float64) float64 {
	if f, ok := firstNaN(x, y); ok {
		return f
	}
	return x - y
}

func firstNaN(x, y float64) (float64, bool) {
	if x == x {
		x = y
	}
	return math.Float64frombits(math.Float64bits(x) | 1<<51), x != x
}

var vecOps = []vecOp{
	{"AddTo", func(dst, a, _ []float64, _ float64) { AddTo(dst, a) },
		func(dst, a, _ []float64, _ float64) {
			for i := range dst {
				dst[i] = refAdd(dst[i], a[i])
			}
		}},
	{"AddPair", func(dst, a, b []float64, _ float64) { AddPair(dst, a, b) },
		func(dst, a, b []float64, _ float64) {
			for i := range dst {
				dst[i] = refAdd(a[i], b[i])
			}
		}},
	{"AddPairTo", func(dst, a, b []float64, _ float64) { AddPairTo(dst, a, b) },
		func(dst, a, b []float64, _ float64) {
			t := make([]float64, len(dst))
			for i := range t {
				t[i] = refAdd(a[i], b[i])
			}
			for i := range dst {
				dst[i] = refAdd(dst[i], t[i])
			}
		}},
	{"Scale", func(dst, _, _ []float64, s float64) { Scale(dst, s) },
		func(dst, _, _ []float64, s float64) {
			for i := range dst {
				dst[i] = refMul(dst[i], s)
			}
		}},
	// The ReLU pair against the branch they replace: a kept lane is a copy of
	// its bits (a NaN payload included), a cleared one is +0.
	{"ReLU", func(dst, a, _ []float64, _ float64) { relu(dst, a) },
		func(dst, a, _ []float64, _ float64) {
			for i, v := range a {
				if !(v > 0) {
					v = 0
				}
				dst[i] = v
			}
		}},
	{"ReLUGate", func(dst, a, b []float64, _ float64) { reluGate(dst, b, a) },
		func(dst, a, b []float64, _ float64) {
			for i, v := range b {
				if !(a[i] > 0) {
					v = 0
				}
				dst[i] = v
			}
		}},
	// SGDUpdate at learning rate s, dst the parameter and a its gradient; with
	// decay, the parameter, then (dst the gradient, a the parameter) the
	// decayed gradient it writes back.
	{"SGD", func(dst, a, _ []float64, s float64) { SGDUpdate(dst, a, s, 0) },
		func(dst, a, _ []float64, s float64) {
			for i := range dst {
				dst[i] = refSub(dst[i], refMul(a[i], s))
			}
		}},
	{"SGDDecay", func(dst, a, _ []float64, s float64) { SGDUpdate(dst, append([]float64(nil), a...), s, sgdDecay) },
		func(dst, a, _ []float64, s float64) {
			for i := range dst {
				dst[i] = refSub(dst[i], refMul(refAdd(a[i], refMul(dst[i], sgdDecay)), s))
			}
		}},
	{"SGDDecayGrad", func(dst, a, _ []float64, s float64) { SGDUpdate(append([]float64(nil), a...), dst, s, sgdDecay) },
		func(dst, a, _ []float64, _ float64) {
			for i := range dst {
				dst[i] = refAdd(dst[i], refMul(a[i], sgdDecay))
			}
		}},
}

// sgdDecay is the engine's weight decay.
const sgdDecay = 0.001

// rowsGeom is the geometry of one row add: rows runs of n values, dst's
// dstep (≥ n) and src's sstep elements apart.
type rowsGeom struct{ rows, n, dstep, sstep int }

// extent is how many elements dst and src must hold.
func (g rowsGeom) extent() (d, s int) {
	if g.rows == 0 {
		return 0, 0
	}
	return (g.rows-1)*g.dstep + g.n, (g.rows-1)*g.sstep + g.n
}

// op is the row add as a vecOp over dst and a, against col2im's scatter one
// element at a time; elements between the rows must come back untouched.
func (g rowsGeom) op() vecOp {
	return vecOp{fmt.Sprintf("AddRows(rows=%d n=%d dstep=%d sstep=%d)", g.rows, g.n, g.dstep, g.sstep),
		func(dst, a, _ []float64, _ float64) { addRows(dst, a, g.rows, g.n, g.dstep, g.sstep) },
		func(dst, a, _ []float64, _ float64) {
			for r := 0; r < g.rows; r++ {
				for j := 0; j < g.n; j++ {
					dst[r*g.dstep+j] = refAdd(dst[r*g.dstep+j], a[r*g.sstep+j])
				}
			}
		}}
}

// rowsGeoms are the row adds the matrix test runs: the CNN's 8-wide rows
// and 24-wide ones (the head only), runs of 1–3 (the Go loop only), of 5, 7,
// 9, 13 and 37 (head and loop), one row, no rows, rows that touch
// (dstep = n) and a source read with overlapping rows.
var rowsGeoms = []rowsGeom{
	{8, 8, 12, 8}, {24, 24, 28, 24}, {3, 1, 4, 1}, {5, 2, 9, 3}, {4, 3, 3, 3},
	{6, 5, 7, 6}, {2, 7, 11, 7}, {3, 13, 13, 20}, {1, 37, 37, 37}, {0, 8, 8, 8}, {4, 9, 10, 2},
}

// Two quiet NaNs of different payload and sign, and a signalling one.
var (
	nanA = math.Float64frombits(0x7ff8_0000_0000_0a0a)
	nanB = math.Float64frombits(0xfff8_0000_0000_0b0b)
	nanS = math.Float64frombits(0x7ff0_0000_0000_0c0c)
)

// vecSpecials are operand pairs whose sum is where implementations could
// part: signed zeros, infinities (Inf + -Inf makes the default NaN),
// denormals, overflow, and NaN against NaN in both operand positions — x86
// returns the first source's payload, so those lanes pin the operand order.
var vecSpecials = [][2]float64{
	{0, math.Copysign(0, -1)}, {math.Copysign(0, -1), 0}, {math.Copysign(0, -1), math.Copysign(0, -1)},
	{math.Inf(1), math.Inf(-1)}, {math.Inf(-1), math.Inf(1)}, {math.Inf(1), 1}, {-1, math.Inf(-1)},
	{5e-324, 5e-324}, {5e-324, -5e-324}, {2.2e-308, -2.1e-308}, {1e-310, 1},
	{math.MaxFloat64, math.MaxFloat64}, {-math.MaxFloat64, -math.MaxFloat64}, {math.MaxFloat64, -math.MaxFloat64},
	{nanA, nanB}, {nanB, nanA}, {nanA, 1}, {1, nanB}, {nanS, nanA}, {nanS, 1}, {nanA, math.Inf(1)},
}

// vecOperands draws dst, a and b of n elements, each starting off elements
// into its own backing array: a quarter of the lanes hold a special pair in
// (a, b) and one of the pair's values, drawn again, in dst.
func vecOperands(rng *rand.Rand, n, od, oa, ob int) (dst, a, b []float64) {
	dst, a, b = make([]float64, od+n)[od:], make([]float64, oa+n)[oa:], make([]float64, ob+n)[ob:]
	for i := 0; i < n; i++ {
		dst[i], a[i], b[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		if rng.Intn(4) == 0 {
			p := vecSpecials[rng.Intn(len(vecSpecials))]
			a[i], b[i] = p[0], p[1]
			dst[i] = vecSpecials[rng.Intn(len(vecSpecials))][rng.Intn(2)]
		}
	}
	return dst, a, b
}

// checkVecOp runs op three ways on copies of the operands and compares bits.
// alias 1 makes dst the a operand itself, alias 2 the b operand.
func checkVecOp(t *testing.T, op vecOp, dst, a, b []float64, s float64, alias int, what string) {
	t.Helper()
	eval := func(f func(dst, a, b []float64, s float64)) []float64 {
		d := append([]float64(nil), dst...)
		switch alias {
		case 1:
			copy(d, a)
			f(d, d, b, s)
		case 2:
			copy(d, b)
			f(d, a, d, s)
		default:
			f(d, a, b, s)
		}
		return d
	}
	want := eval(op.naive)
	got := map[string][]float64{"selected": eval(op.run)}
	withGoVec(func() { got["go"] = eval(op.run) })
	for impl, g := range got {
		for i := range want {
			if math.Float64bits(g[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s (%s) %s alias=%d: element %d of %d is %016x, the naive loop gives %016x (dst %016x a %016x b %016x)",
					op.name, impl, what, alias, i, len(want), math.Float64bits(g[i]), math.Float64bits(want[i]),
					math.Float64bits(dst[i]), math.Float64bits(a[i]), math.Float64bits(b[i]))
			}
		}
	}
}

func TestVecKernelsMatchScalar(t *testing.T) {
	sizes := []int{255, 256, 257, 50_000, 65_537}
	for n := 0; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	rng := rand.New(rand.NewSource(22))
	for _, n := range sizes {
		for off := 0; off < 64; off++ {
			if n > 1000 && off%21 != 0 { // the long vectors take four of the 64 offset triples
				continue
			}
			od, oa, ob := off&3, off>>2&3, off>>4
			dst, a, b := vecOperands(rng, n, od, oa, ob)
			what := fmt.Sprintf("n=%d offsets=%d,%d,%d", n, od, oa, ob)
			for _, op := range vecOps {
				checkVecOp(t, op, dst, a, b, 1.0/3, 0, what)
			}
			checkVecOp(t, vecOps[1], dst, a, b, 0, 1, what)
			checkVecOp(t, vecOps[1], dst, a, b, 0, 2, what)
			checkVecOp(t, vecOps[3], dst, a, b, nanB, 0, what)
		}
	}
	for _, g := range rowsGeoms {
		nd, ns := g.extent()
		for off := 0; off < 16; off++ {
			dst, a, _ := vecOperands(rng, max(nd, ns), off&3, off>>2, 0)
			checkVecOp(t, g.op(), dst[:nd], a[:ns], nil, 0, 0, fmt.Sprintf("offsets=%d,%d", off&3, off>>2))
		}
	}
}

// TestVecKernelsNaNOperandOrder is the operand-order rule stated on its own,
// on every lane of the assembly's step and the Go tail: of two NaNs the
// first operand's payload survives, AddPairTo's first operand being dst.
func TestVecKernelsNaNOperandOrder(t *testing.T) {
	const n = 37
	fill := func(v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	quiet := func(v float64) uint64 { return math.Float64bits(v) | 1<<51 }
	for _, c := range []struct {
		name       string
		f          func(dst []float64)
		dst, first float64
	}{
		{"AddTo", func(dst []float64) { AddTo(dst, fill(nanB)) }, nanA, nanA},
		{"AddTo", func(dst []float64) { AddTo(dst, fill(nanA)) }, nanB, nanB},
		{"AddPair", func(dst []float64) { AddPair(dst, fill(nanA), fill(nanB)) }, 0, nanA},
		{"AddPair", func(dst []float64) { AddPair(dst, fill(nanB), fill(nanA)) }, 0, nanB},
		{"AddPairTo", func(dst []float64) { AddPairTo(dst, fill(nanA), fill(1)) }, nanB, nanB},
		{"AddPairTo", func(dst []float64) { AddPairTo(dst, fill(1), fill(nanB)) }, nanS, nanS},
		{"AddPairTo", func(dst []float64) { AddPairTo(dst, fill(nanB), fill(nanA)) }, 1, nanB},
		{"Scale", func(dst []float64) { Scale(dst, nanB) }, nanA, nanA},
		{"SGD", func(dst []float64) { SGDUpdate(dst, fill(nanB), 1, 0) }, nanA, nanA},
		{"SGD", func(dst []float64) { SGDUpdate(dst, fill(nanA), nanB, 0) }, 1, nanA},
		{"SGDDecay", func(dst []float64) { SGDUpdate(dst, fill(nanA), 1, sgdDecay) }, nanB, nanB},
		{"SGDDecay", func(dst []float64) { SGDUpdate(dst, fill(nanB), nanA, sgdDecay) }, 1, nanB},
		{"SGDDecayGrad", func(dst []float64) { SGDUpdate(fill(nanB), dst, 1, sgdDecay) }, nanA, nanA},
		{"SGDDecayGrad", func(dst []float64) { SGDUpdate(fill(nanB), dst, 1, nanA) }, 1, nanB},
		{"AddRows", func(dst []float64) { addRows(dst, fill(nanB), 1, n, n, n) }, nanA, nanA},
		{"AddRows", func(dst []float64) { addRows(dst, fill(nanA), 2, n/2, n/2, n/2) }, nanB, nanB},
	} {
		for _, impl := range []string{"selected", "go"} {
			dst := fill(c.dst)
			if impl == "go" {
				withGoVec(func() { c.f(dst) })
			} else {
				c.f(dst)
			}
			for i, v := range dst {
				if math.Float64bits(v) != quiet(c.first) {
					t.Fatalf("%s (%s): lane %d is %016x, want the first operand's payload %016x", c.name, impl, i, math.Float64bits(v), quiet(c.first))
				}
			}
		}
	}
}

// FuzzVecKernels fuzzes length, operand offsets, seed and operation (the
// adds, Scale, the ReLU pair, the SGD update and the row add: op's low three
// bits and its top bit pick it) and, for the row add, the row count, row
// width and both strides (geom).
func FuzzVecKernels(f *testing.F) {
	f.Add(uint16(0), uint8(0), int64(1), uint8(0), uint32(0))
	f.Add(uint16(15), uint8(0b011011), int64(2), uint8(1), uint32(0))
	f.Add(uint16(16), uint8(0b000001), int64(3), uint8(2), uint32(0))
	f.Add(uint16(1029), uint8(0b111001), int64(4), uint8(3), uint32(0))
	f.Add(uint16(37), uint8(0b100110), int64(5), uint8(4), uint32(0))
	f.Add(uint16(100), uint8(0b010101), int64(6), uint8(5), uint32(0))
	f.Add(uint16(67), uint8(0b001101), int64(7), uint8(6|2<<3), uint32(0))   // SGD at lr NaN
	f.Add(uint16(35), uint8(0b110010), int64(8), uint8(7), uint32(0))        // SGDDecay
	f.Add(uint16(50), uint8(0b000111), int64(9), uint8(0x80), uint32(0))     // SGDDecayGrad
	f.Add(uint16(0), uint8(0b100101), int64(10), uint8(0x81), uint32(69768)) // AddRows: the CNN's 8 rows of 8, 12 apart
	f.Fuzz(func(t *testing.T, n uint16, offs uint8, seed int64, op uint8, geom uint32) {
		rng := rand.New(rand.NewSource(seed))
		od, oa, ob := int(offs&3), int(offs>>2&3), int(offs>>4&3)
		what := fmt.Sprintf("n=%d offs=%06b seed=%d geom=%d", n%4200, offs, seed, geom)
		k := (int(op&7) | int(op>>7)<<3) % (len(vecOps) + 1)
		if k == len(vecOps) {
			w := int(geom >> 4 % 41)
			g := rowsGeom{rows: int(geom % 9), n: w, dstep: w + int(geom>>10%8), sstep: int(geom >> 13 % 48)}
			nd, ns := g.extent()
			dst, a, _ := vecOperands(rng, max(nd, ns), od, oa, ob)
			checkVecOp(t, g.op(), dst[:nd], a[:ns], nil, 0, 0, what)
			return
		}
		dst, a, b := vecOperands(rng, int(n%4200), od, oa, ob)
		o := vecOps[k]
		s := []float64{0.125, 1.0 / 7, nanB, math.Inf(1)}[op>>3%4]
		alias := 0
		if o.name == "AddPair" {
			alias = int(op >> 5 % 3)
		}
		checkVecOp(t, o, dst, a, b, s, alias, what)
	})
}

// BenchmarkVecAdd is the layer's own number: each add at the fold's two
// vector lengths, the destination L2-hot (one buffer, rewritten every
// iteration) or drawn cold from a ring of 64, the selected kernels ("asm" —
// the Go loops under purego) against the Go loops.
func BenchmarkVecAdd(b *testing.B) {
	ops := []struct {
		name  string
		moved int // vectors read and written per call
		run   func(dst, x, y []float64)
	}{
		{"AddTo", 3, func(dst, x, _ []float64) { AddTo(dst, x) }},
		{"AddPair", 3, AddPair},
		{"AddPairTo", 4, AddPairTo},
	}
	for _, n := range []int{50_000, 600_000} {
		rng := rand.New(rand.NewSource(1))
		ring := make([][]float64, 64)
		for i := range ring {
			ring[i] = make([]float64, n)
			for j := range ring[i] { // touch every page before the clock starts
				ring[i][j] = rng.NormFloat64()
			}
		}
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for _, op := range ops {
			for _, dest := range []string{"hot", "cold"} {
				for _, impl := range []string{"asm", "go"} {
					b.Run(fmt.Sprintf("%s/n=%d/%s/%s", op.name, n, dest, impl), func(b *testing.B) {
						loop := func() {
							b.SetBytes(int64(8 * n * op.moved))
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								d := ring[0]
								if dest == "cold" {
									d = ring[i%len(ring)]
								}
								op.run(d, x, y)
							}
						}
						if impl == "go" {
							withGoVec(loop)
						} else {
							loop()
						}
					})
				}
			}
		}
	}
}
