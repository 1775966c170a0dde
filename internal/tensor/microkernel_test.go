package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withGoTile runs f with the driver forced onto the Go tile at both widths —
// the test-only hook for comparing the two implementations of the contract.
func withGoTile(f func()) {
	p64, p32 := tile64, tile32
	tile64, tile32 = goTile[float64], goTile[float32]
	defer func() { tile64, tile32 = p64, p32 }()
	f()
}

// fillEdgy draws mostly uniform values in [-1, 1) and salts them with what a
// vector kernel is most likely to treat differently from scalar code while
// every sum stays finite: both zeros, denormals of t's width, and normals so
// small that their products are denormal or underflow.
func fillEdgy(t *Tensor, rng *rand.Rand) {
	denorm, tiny := 5e-324, 1e-160
	if t.dt == Float32 {
		denorm, tiny = 1e-45, 1e-22
	}
	buf := make([]float64, t.Len())
	for i := range buf {
		sign := float64(1 - 2*rng.Intn(2))
		switch rng.Intn(12) {
		case 0:
			buf[i] = math.Copysign(0, sign)
		case 1:
			buf[i] = sign * denorm * float64(1+rng.Intn(1000))
		case 2:
			buf[i] = sign * tiny * rng.Float64()
		default:
			buf[i] = rng.Float64()*2 - 1
		}
	}
	t.CopyFromF64(buf)
}

// product is one Tensor-level entry point with its operand shapes and the
// retired code path that used to serve it.
type product struct {
	name   string
	aT, bT bool // operand is stored transposed
	acc    bool
	run    func(dst, a, b *Tensor)
	ref64  func(c, a, b []float64, m, k, n int, acc bool)
	ref32  func(c, a, b []float32, m, k, n int, acc bool)
}

var products = []product{
	{name: "MatMulInto", run: MatMulInto, ref64: refMatmul[float64], ref32: refMatmul[float32]},
	{name: "MatMulAcc", acc: true, run: MatMulAcc, ref64: refMatmul[float64], ref32: refMatmul[float32]},
	{name: "MatMulTransAInto", aT: true, run: MatMulTransAInto,
		ref64: func(c, a, b []float64, m, k, n int, acc bool) { refMatmulTransA(c, a, b, k, m, n, acc) },
		ref32: func(c, a, b []float32, m, k, n int, acc bool) { refMatmulTransA(c, a, b, k, m, n, acc) }},
	{name: "MatMulTransAAcc", aT: true, acc: true, run: MatMulTransAAcc,
		ref64: func(c, a, b []float64, m, k, n int, acc bool) { refMatmulTransA(c, a, b, k, m, n, acc) },
		ref32: func(c, a, b []float32, m, k, n int, acc bool) { refMatmulTransA(c, a, b, k, m, n, acc) }},
	{name: "MatMulTransBInto", bT: true, run: MatMulTransBInto, ref64: refMatmulTransB[float64], ref32: refMatmulTransB[float32]},
	{name: "MatMulTransBAcc", bT: true, acc: true, run: MatMulTransBAcc, ref64: refMatmulTransB[float64], ref32: refMatmulTransB[float32]},
}

// operands builds (a, b, c0) for an m×k×n product in p's storage layout.
func (p product) operands(dt DType, m, k, n int, fill func(*Tensor)) (a, b, c0 *Tensor) {
	a, b, c0 = NewOf(dt, m, k), NewOf(dt, k, n), NewOf(dt, m, n)
	if p.aT {
		a = NewOf(dt, k, m)
	}
	if p.bT {
		b = NewOf(dt, n, k)
	}
	fill(a)
	fill(b)
	return a, b, c0
}

// reference runs the retired kernels on copies of the operands.
func (p product) reference(a, b, c0 *Tensor, m, k, n int) *Tensor {
	c := c0.Clone()
	if c.dt == Float32 {
		p.ref32(c.data32, a.data32, b.data32, m, k, n, p.acc)
	} else {
		p.ref64(c.data, a.data, b.data, m, k, n, p.acc)
	}
	return c
}

func (p product) compute(a, b, c0 *Tensor) *Tensor {
	c := c0.Clone()
	p.run(c, a, b)
	return c
}

// The shape table crosses every fringe of the 4×W tile (W = 8 and 16) with
// the conv and fully-connected shapes of the paper's CNN. Only products
// beyond 2^20 multiply-adds are left out: 13 of the 280, none of which adds
// a fringe combination the rest does not have.
var (
	kernelMs = []int{1, 3, 4, 5, 8, 25, 200}
	kernelNs = []int{1, 7, 8, 9, 16, 62, 512, 4608}
	kernelKs = []int{0, 1, 8, 25, 200}
)

const kernelTestWork = 1 << 20

// TestMicroKernelMatchesReference holds the selected micro-kernel (the
// assembly where the CPU has AVX2), the Go tile and the retired scalar
// kernels to the same bits, through every entry point and at both widths.
// k = 0 cannot be a tensor shape, so it goes through the driver directly.
func TestMicroKernelMatchesReference(t *testing.T) {
	t.Logf("selected micro-kernel: %s", tileImpl)
	for _, dt := range dtypes {
		t.Run(dt.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(2105))
			fill := func(x *Tensor) { fillEdgy(x, rng) }
			shapes := 0
			for _, m := range kernelMs {
				for _, n := range kernelNs {
					for _, k := range kernelKs {
						if m*n*k > kernelTestWork {
							continue
						}
						shapes++
						if k == 0 {
							checkEmptyInner(t, dt, m, n, rng)
							continue
						}
						for _, p := range products {
							a, b, c0 := p.operands(dt, m, k, n, fill)
							if p.acc {
								fillRand(c0, rng) // non-zero C, and no −0 (see matmul_ref_test.go)
							} else {
								c0.Fill(math.NaN()) // an overwriting product must not read C
							}
							tag := fmt.Sprintf("%s m=%d k=%d n=%d", p.name, m, k, n)
							want := f64Of(p.reference(a, b, c0, m, k, n))
							sameBits(t, tag+" selected vs retired", want, f64Of(p.compute(a, b, c0)))
							withGoTile(func() {
								sameBits(t, tag+" go tile vs retired", want, f64Of(p.compute(a, b, c0)))
							})
						}
					}
				}
			}
			t.Logf("%d shapes × %d entry points", shapes, len(products))
		})
	}
}

// checkEmptyInner drives k = 0: storing writes zeros, accumulating leaves C.
func checkEmptyInner(t *testing.T, dt DType, m, n int, rng *rand.Rand) {
	t.Helper()
	c0 := NewOf(dt, m, n)
	fillRand(c0, rng)
	for mode, want := range map[tileMode][]float64{
		tileStore: make([]float64, m*n),
		tileSeed:  f64Of(c0),
		tileAddTo: f64Of(c0),
	} {
		c := c0.Clone()
		if dt == Float32 {
			gemm(tile32, c.data32, n, nil, 0, 1, nil, n, m, 0, n, mode)
		} else {
			gemm(tile64, c.data, n, nil, 0, 1, nil, n, m, 0, n, mode)
		}
		sameBits(t, fmt.Sprintf("k=0 m=%d n=%d mode=%d", m, n, mode), want, f64Of(c))
	}
}

// sameBitsOrNaN is sameBits except that a NaN matches any NaN: which
// operand's payload an instruction forwards depends on operand order, which
// the Go compiler chooses for the scalar code.
func sameBitsOrNaN(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", name, len(a), len(b))
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d differs: %g vs %g", name, i, a[i], b[i])
		}
	}
}

// TestMicroKernelNonFinite pins the two implementations to each other on
// operands holding NaN and ±Inf, and writes down the one intended difference
// from the retired kernels: those skipped a p step whose A values were all
// zero, which hid 0·Inf = NaN (and kept a −0 in C that adding +0 turns into
// +0). The micro-kernel skips nothing.
func TestMicroKernelNonFinite(t *testing.T) {
	for _, dt := range dtypes {
		t.Run(dt.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			fill := func(x *Tensor) {
				fillEdgy(x, rng)
				for i := 0; i < 1+x.Len()/16; i++ {
					v := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
					x.setFlat(rng.Intn(x.Len()), v)
				}
			}
			for _, sh := range [][3]int{{4, 8, 16}, {5, 25, 17}, {9, 3, 40}, {25, 62, 33}, {8, 200, 9}} {
				m, k, n := sh[0], sh[1], sh[2]
				for _, p := range products {
					a, b, c0 := p.operands(dt, m, k, n, fill)
					fillRand(c0, rng)
					got := f64Of(p.compute(a, b, c0))
					withGoTile(func() {
						sameBitsOrNaN(t, fmt.Sprintf("%s m=%d k=%d n=%d", p.name, m, k, n), f64Of(p.compute(a, b, c0)), got)
					})
				}
			}

			// 0·Inf: A is all zero, one B element is +Inf. Small MatMul and
			// TransA went through the skipping kernels.
			for _, p := range products[:4] {
				a, b, c0 := p.operands(dt, 4, 2, 8, func(x *Tensor) { x.Zero() })
				b.setFlat(3, math.Inf(1))
				if ref := p.reference(a, b, c0, 4, 2, 8); math.IsNaN(ref.flatAt(3)) {
					t.Errorf("%s: the retired kernel was expected to skip 0·Inf, got NaN", p.name)
				}
				if got := p.compute(a, b, c0); !math.IsNaN(got.flatAt(3)) {
					t.Errorf("%s: 0·Inf must reach the output as NaN, got %g", p.name, got.flatAt(3))
				}
			}
			// −0 in C under an accumulating product of zeros.
			for _, p := range []product{products[1], products[3]} {
				a, b, c0 := p.operands(dt, 4, 2, 8, func(x *Tensor) { x.Zero() })
				b.Fill(1)
				c0.Fill(math.Copysign(0, -1))
				if ref := p.reference(a, b, c0, 4, 2, 8); !math.Signbit(ref.flatAt(0)) {
					t.Errorf("%s: the retired kernel was expected to keep −0", p.name)
				}
				if got := p.compute(a, b, c0); math.Signbit(got.flatAt(0)) {
					t.Errorf("%s: −0 + (+0·1) must be +0", p.name)
				}
			}
		})
	}
}

// setFlat assigns element i of the flattened tensor, rounding to its dtype.
func (t *Tensor) setFlat(i int, v float64) {
	if t.dt == Float32 {
		t.data32[i] = float32(v)
		return
	}
	t.data[i] = v
}

// naiveGemm is the contract spelled out: one ordered sum per element.
func naiveGemm[E Elem](c []E, ldc int, a []E, ars, acs int, b []E, ldb, m, k, n int, mode tileMode) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s E
			if mode == tileSeed {
				s = c[i*ldc+j]
			}
			for p := 0; p < k; p++ {
				s += E(a[i*ars+p*acs] * b[p*ldb+j])
			}
			if mode == tileAddTo {
				s = c[i*ldc+j] + s
			}
			c[i*ldc+j] = s
		}
	}
}

// fuzzGemm runs one strided product through the driver on the selected tile
// and on the Go tile and through naiveGemm, and checks that all three agree
// and that nothing outside the m×n block of C was written.
func fuzzGemm[E Elem](t *testing.T, sel tileFunc[E], m, k, n, padC, padA, padB int, transA bool, mode tileMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ldc, ldb := n+padC, n+padB
	ars, acs := k+padA, 1
	aLen := m * ars
	if transA {
		ars, acs = 1, m+padA
		aLen = k * acs
	}
	draw := func(n int) []E {
		s := make([]E, n)
		for i := range s {
			s[i] = E(rng.Float64()*2 - 1)
		}
		return s
	}
	a, b, c0 := draw(aLen), draw(k*ldb), draw(m*ldc)
	run := func(f func(c []E)) []E {
		c := append([]E(nil), c0...)
		f(c)
		return c
	}
	want := run(func(c []E) { naiveGemm(c, ldc, a, ars, acs, b, ldb, m, k, n, mode) })
	for name, tile := range map[string]tileFunc[E]{"selected": sel, "go": goTile[E]} {
		got := run(func(c []E) { gemm(tile, c, ldc, a, ars, acs, b, ldb, m, k, n, mode) })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s tile: m=%d k=%d n=%d ldc=%d ars=%d acs=%d ldb=%d mode=%d: element %d is %v, want %v",
					name, m, k, n, ldc, ars, acs, ldb, mode, i, got[i], want[i])
			}
		}
	}
}

// FuzzMicroKernel fuzzes the driver over shape, operand strides and seed.
func FuzzMicroKernel(f *testing.F) {
	f.Add(uint8(8), uint8(25), uint16(62), uint8(0), uint8(0), uint8(0), false, uint8(0), int64(1))
	f.Add(uint8(5), uint8(0), uint16(17), uint8(1), uint8(2), uint8(3), true, uint8(1), int64(2))
	f.Add(uint8(200), uint8(16), uint16(33), uint8(3), uint8(0), uint8(1), true, uint8(2), int64(3))
	f.Fuzz(func(t *testing.T, m, k uint8, n uint16, padC, padA, padB uint8, transA bool, mode uint8, seed int64) {
		mi, ki, ni := 1+int(m), int(k), 1+int(n%300)
		pc, pa, pb := int(padC%4), int(padA%4), int(padB%4)
		md := tileMode(mode % 3)
		fuzzGemm(t, tile64, mi, ki, ni, pc, pa, pb, transA, md, seed)
		fuzzGemm(t, tile32, mi, ki, ni, pc, pa, pb, transA, md, seed)
	})
}
