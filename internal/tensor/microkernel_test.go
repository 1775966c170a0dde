package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// tileLane is one implementation of the tile contract; skip says why this
// host cannot run it, and is empty when it can.
type tileLane struct {
	name string
	tile tileFunc
	skip string
}

// tileLanes is every tile implementation in the order init prefers them,
// last wins: the Go tile, then the assembly lanes (asmLanes), which carry a
// skip reason where the CPU lacks the feature or the build compiled them out.
var tileLanes = append([]tileLane{{name: "go", tile: goTile}}, asmLanes()...)

// runnableLanes is tileLanes without the lanes this host cannot run; the Go
// tile comes first.
func runnableLanes() []tileLane {
	var ls []tileLane
	for _, l := range tileLanes {
		if l.skip == "" {
			ls = append(ls, l)
		}
	}
	return ls
}

// withTile runs f with the driver forced onto l's tile — the test-only hook
// for comparing the implementations of the contract.
func withTile(l tileLane, f func()) {
	prev := microTile
	microTile = l.tile
	defer func() { microTile = prev }()
	f()
}

// fillEdgy draws mostly uniform values in [-1, 1) and salts them with what a
// vector kernel is most likely to treat differently from scalar code while
// every sum stays finite: both zeros, denormals, and normals so small that
// their products are denormal or underflow.
func fillEdgy(t *Tensor, rng *rand.Rand) {
	const denorm, tiny = 5e-324, 1e-160
	buf := t.data
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
}

// product is one Tensor-level entry point with its operand shapes and the
// retired code path that used to serve it.
type product struct {
	name   string
	aT, bT bool // operand is stored transposed
	acc    bool
	run    func(dst, a, b *Tensor)
	ref    func(c, a, b []float64, m, k, n int, acc bool)
}

var products = []product{
	{name: "MatMulInto", run: MatMulInto, ref: refMatmul},
	{name: "MatMulTransA", aT: true, run: func(dst, a, b *Tensor) { dst.CopyFrom(MatMulTransA(a, b)) },
		ref: func(c, a, b []float64, m, k, n int, acc bool) { refMatmulTransA(c, a, b, k, m, n, acc) }},
	{name: "MatMulTransAAcc", aT: true, acc: true, run: MatMulTransAAcc,
		ref: func(c, a, b []float64, m, k, n int, acc bool) { refMatmulTransA(c, a, b, k, m, n, acc) }},
	{name: "MatMulTransBInto", bT: true, run: MatMulTransBInto, ref: refMatmulTransB},
}

// operands builds (a, b, c0) for an m×k×n product in p's storage layout.
func (p product) operands(m, k, n int, fill func(*Tensor)) (a, b, c0 *Tensor) {
	a, b, c0 = New(m, k), New(k, n), New(m, n)
	if p.aT {
		a = New(k, m)
	}
	if p.bT {
		b = New(n, k)
	}
	fill(a)
	fill(b)
	return a, b, c0
}

// reference runs the retired kernels on copies of the operands.
func (p product) reference(a, b, c0 *Tensor, m, k, n int) *Tensor {
	c := c0.Clone()
	p.ref(c.data, a.data, b.data, m, k, n, p.acc)
	return c
}

func (p product) compute(a, b, c0 *Tensor) *Tensor {
	c := c0.Clone()
	p.run(c, a, b)
	return c
}

// The shape table crosses every fringe of the 4×8 tile with
// the conv and fully-connected shapes of the paper's CNN. Only products
// beyond 2^20 multiply-adds are left out: 13 of the 280, none of which adds
// a fringe combination the rest does not have.
var (
	kernelMs = []int{1, 3, 4, 5, 8, 25, 200}
	kernelNs = []int{1, 7, 8, 9, 16, 62, 512, 4608}
	kernelKs = []int{0, 1, 8, 25, 200}
)

const kernelTestWork = 1 << 20

// TestMicroKernelMatchesReference holds every tile this host can run (the Go
// tile, and the AVX2 and AVX-512 assembly where the CPU has them) and the
// retired scalar kernels to the same bits, through every entry point. k = 0
// cannot be a tensor shape, so it goes through the driver directly. It logs
// which lanes ran, which were skipped and why, and checks that init selected the
// last lane the host runs.
func TestMicroKernelMatchesReference(t *testing.T) {
	lanes := runnableLanes()
	var ran, skipped []string
	for _, l := range tileLanes {
		if l.skip == "" {
			ran = append(ran, l.name)
		} else {
			skipped = append(skipped, l.name+" ("+l.skip+")")
		}
	}
	if len(skipped) == 0 {
		skipped = []string{"none"}
	}
	t.Logf("tile lanes: ran %s; skipped %s; selected %s", strings.Join(ran, ", "), strings.Join(skipped, ", "), tileImpl)
	if want := lanes[len(lanes)-1].name; tileImpl != want {
		t.Errorf("init selected the %s tile, want %s, the last lane this host runs", tileImpl, want)
	}
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
					checkEmptyInner(t, m, n, rng)
					continue
				}
				for _, p := range products {
					a, b, c0 := p.operands(m, k, n, fill)
					if p.acc {
						fillRand(c0, rng) // non-zero C, and no −0 (see matmul_ref_test.go)
					} else {
						c0.Fill(math.NaN()) // an overwriting product must not read C
					}
					tag := fmt.Sprintf("%s m=%d k=%d n=%d", p.name, m, k, n)
					want := f64Of(p.reference(a, b, c0, m, k, n))
					for _, l := range lanes {
						withTile(l, func() {
							sameBits(t, tag+" "+l.name+" tile vs retired", want, f64Of(p.compute(a, b, c0)))
						})
					}
				}
			}
		}
	}
	t.Logf("%d shapes × %d entry points × %d lanes", shapes, len(products), len(lanes))
	checkTileTables(t, rng, fill, sameBits)
}

// tileTables draws offset tables for a k-step tile over operands of aLen and
// bLen values: arbitrary A row offsets, A column offsets at random, and B
// rows either at random offsets or, with overlap, on a walk whose steps are
// below w, so that consecutive rows share values.
func tileTables(rng *rand.Rand, w, k, aLen, bLen int, overlap bool) (arow, acol, boff []int) {
	arow, acol, boff = make([]int, tileRows), make([]int, k), make([]int, k)
	for r := range arow {
		arow[r] = rng.Intn(aLen / 2)
	}
	o := rng.Intn(bLen - w + 1)
	for p := range acol {
		acol[p] = rng.Intn(aLen / 2)
		if overlap {
			o = (o + rng.Intn(w)) % (bLen - w + 1)
		} else {
			o = rng.Intn(bLen - w + 1)
		}
		boff[p] = o
	}
	return arow, acol, boff
}

// naiveTile is the table contract spelled out: one ordered sum per element
// of the 4×w tile.
func naiveTile(c []float64, ldc int, a []float64, arow, acol []int, b []float64, boff []int, w int, mode tileMode) {
	for r := range arow {
		for j := 0; j < w; j++ {
			var s float64
			if mode == tileSeed {
				s = c[r*ldc+j]
			}
			for p, ao := range acol {
				s += float64(a[arow[r]+ao] * b[boff[p]+j])
			}
			if mode == tileAddTo {
				s += c[r*ldc+j]
			}
			c[r*ldc+j] = s
		}
	}
}

// checkTileTables runs table-addressed tiles — k ∈ {1, 2, 8, 25, 200}, every
// mode, random and overlapping B rows — on every runnable lane and through
// naiveTile from one C, and holds each lane to the contract with cmp.
// C has two columns of slack per row, which no tile may touch.
func checkTileTables(t *testing.T, rng *rand.Rand, fill func(*Tensor), cmp func(*testing.T, string, []float64, []float64)) {
	t.Helper()
	w := tileCols
	for _, k := range []int{1, 2, 8, 25, 200} {
		for _, mode := range []tileMode{tileStore, tileSeed, tileAddTo} {
			for _, overlap := range []bool{false, true} {
				a, b, c0 := New(64+rng.Intn(300)), New(w+rng.Intn(3*k+w)), New(tileRows*(w+2))
				fill(a)
				fill(b)
				fillRand(c0, rng)
				arow, acol, boff := tileTables(rng, w, k, a.Len(), b.Len(), overlap)
				tag := fmt.Sprintf("tables k=%d mode=%d overlap=%v", k, mode, overlap)
				run := func(f func(c *Tensor)) []float64 {
					c := c0.Clone()
					f(c)
					return f64Of(c)
				}
				want := run(func(c *Tensor) { naiveTile(c.data, w+2, a.data, arow, acol, b.data, boff, w, mode) })
				for _, l := range runnableLanes() {
					got := run(func(c *Tensor) { l.tile(c.data, w+2, a.data, arow, acol, b.data, boff, k, mode) })
					cmp(t, tag+" "+l.name+" vs contract", want, got)
				}
			}
		}
	}
}

// checkEmptyInner drives k = 0: storing writes zeros, accumulating leaves C.
func checkEmptyInner(t *testing.T, m, n int, rng *rand.Rand) {
	t.Helper()
	c0 := New(m, n)
	fillRand(c0, rng)
	for mode, want := range map[tileMode][]float64{
		tileStore: make([]float64, m*n),
		tileSeed:  f64Of(c0),
		tileAddTo: f64Of(c0),
	} {
		c := c0.Clone()
		gemm(c.data, n, nil, 0, 1, nil, n, m, 0, n, mode)
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

// TestMicroKernelNonFinite pins every runnable assembly lane to the Go tile
// on operands holding NaN and ±Inf, and writes down the one intended
// difference from the retired kernels: those skipped a p step whose A
// values were all zero, which hid 0·Inf = NaN (and kept a −0 in C that
// adding +0 turns into +0). The micro-kernel skips nothing.
func TestMicroKernelNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fill := func(x *Tensor) {
		fillEdgy(x, rng)
		for i := 0; i < 1+x.Len()/16; i++ {
			v := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			x.data[rng.Intn(x.Len())] = v
		}
	}
	for _, sh := range [][3]int{{4, 8, 16}, {5, 25, 17}, {9, 3, 40}, {25, 62, 33}, {8, 200, 9}} {
		m, k, n := sh[0], sh[1], sh[2]
		for _, p := range products {
			a, b, c0 := p.operands(m, k, n, fill)
			fillRand(c0, rng)
			var want []float64
			withTile(tileLanes[0], func() { want = f64Of(p.compute(a, b, c0)) })
			for _, l := range runnableLanes()[1:] {
				withTile(l, func() {
					sameBitsOrNaN(t, fmt.Sprintf("%s m=%d k=%d n=%d %s", p.name, m, k, n, l.name), want, f64Of(p.compute(a, b, c0)))
				})
			}
		}
	}

	checkTileTables(t, rng, fill, sameBitsOrNaN)

	// 0·Inf: A is all zero, one B element is +Inf. Small MatMul and
	// TransA went through the skipping kernels.
	for _, p := range products[:3] {
		a, b, c0 := p.operands(4, 2, 8, func(x *Tensor) { x.Zero() })
		b.data[3] = math.Inf(1)
		if ref := p.reference(a, b, c0, 4, 2, 8); math.IsNaN(ref.data[3]) {
			t.Errorf("%s: the retired kernel was expected to skip 0·Inf, got NaN", p.name)
		}
		if got := p.compute(a, b, c0); !math.IsNaN(got.data[3]) {
			t.Errorf("%s: 0·Inf must reach the output as NaN, got %g", p.name, got.data[3])
		}
	}
	// −0 in C under an accumulating product of zeros (MatMulTransAAcc,
	// the one seeded entry point).
	p := products[2]
	a, b, c0 := p.operands(4, 2, 8, func(x *Tensor) { x.Zero() })
	b.Fill(1)
	c0.Fill(math.Copysign(0, -1))
	if ref := p.reference(a, b, c0, 4, 2, 8); !math.Signbit(ref.data[0]) {
		t.Errorf("%s: the retired kernel was expected to keep −0", p.name)
	}
	if got := p.compute(a, b, c0); math.Signbit(got.data[0]) {
		t.Errorf("%s: −0 + (+0·1) must be +0", p.name)
	}
}

// naiveGemm is the contract spelled out: one ordered sum per element.
func naiveGemm(c []float64, ldc int, a []float64, ars, acs int, b []float64, ldb, m, k, n int, mode tileMode) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			if mode == tileSeed {
				s = c[i*ldc+j]
			}
			for p := 0; p < k; p++ {
				s += float64(a[i*ars+p*acs] * b[p*ldb+j])
			}
			if mode == tileAddTo {
				s = c[i*ldc+j] + s
			}
			c[i*ldc+j] = s
		}
	}
}

// fuzzGemm runs one strided product through the driver on every runnable
// lane and through naiveGemm, and checks that they all agree and that
// nothing outside the m×n block of C was written.
func fuzzGemm(t *testing.T, m, k, n, padC, padA, padB int, transA bool, mode tileMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ldc, ldb := n+padC, n+padB
	ars, acs := k+padA, 1
	aLen := m * ars
	if transA {
		ars, acs = 1, m+padA
		aLen = k * acs
	}
	draw := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64()*2 - 1
		}
		return s
	}
	a, b, c0 := draw(aLen), draw(k*ldb), draw(m*ldc)
	run := func(f func(c []float64)) []float64 {
		c := append([]float64(nil), c0...)
		f(c)
		return c
	}
	want := run(func(c []float64) { naiveGemm(c, ldc, a, ars, acs, b, ldb, m, k, n, mode) })
	for _, l := range runnableLanes() {
		var got []float64
		withTile(l, func() { got = run(func(c []float64) { gemm(c, ldc, a, ars, acs, b, ldb, m, k, n, mode) }) })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s tile: m=%d k=%d n=%d ldc=%d ars=%d acs=%d ldb=%d mode=%d: element %d is %v, want %v",
					l.name, m, k, n, ldc, ars, acs, ldb, mode, i, got[i], want[i])
			}
		}
	}
}

// fuzzTables runs one table-addressed tile, as checkTileTables draws them,
// on every runnable lane against naiveTile.
func fuzzTables(t *testing.T, k int, mode tileMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	w := tileCols
	draw := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64()*2 - 1
		}
		return s
	}
	a, b, c0 := draw(8+rng.Intn(400)), draw(w+rng.Intn(4*k+w)), draw(tileRows*(w+3))
	arow, acol, boff := tileTables(rng, w, k, len(a), len(b), rng.Intn(2) == 0)
	want := append([]float64(nil), c0...)
	naiveTile(want, w+3, a, arow, acol, b, boff, w, mode)
	for _, l := range runnableLanes() {
		got := append([]float64(nil), c0...)
		l.tile(got, w+3, a, arow, acol, b, boff, k, mode)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s tile: tables k=%d mode=%d arow=%v: element %d is %v, want %v", l.name, k, mode, arow, i, got[i], want[i])
			}
		}
	}
}

// FuzzMicroKernel fuzzes the driver over shape, operand strides and seed,
// and with tables set, one tile over random offset tables.
func FuzzMicroKernel(f *testing.F) {
	f.Add(uint8(8), uint8(25), uint16(62), uint8(0), uint8(0), uint8(0), false, uint8(0), int64(1), false)
	f.Add(uint8(5), uint8(0), uint16(17), uint8(1), uint8(2), uint8(3), true, uint8(1), int64(2), false)
	f.Add(uint8(200), uint8(16), uint16(33), uint8(3), uint8(0), uint8(1), true, uint8(2), int64(3), false)
	f.Add(uint8(1), uint8(25), uint16(1), uint8(0), uint8(0), uint8(0), false, uint8(2), int64(4), true)
	f.Add(uint8(1), uint8(3), uint16(1), uint8(0), uint8(0), uint8(0), false, uint8(1), int64(5), true)
	f.Fuzz(func(t *testing.T, m, k uint8, n uint16, padC, padA, padB uint8, transA bool, mode uint8, seed int64, tables bool) {
		md := tileMode(mode % 3)
		if tables {
			fuzzTables(t, 1+int(k), md, seed)
			return
		}
		mi, ki, ni := 1+int(m), int(k), 1+int(n%300)
		pc, pa, pb := int(padC%4), int(padA%4), int(padB%4)
		fuzzGemm(t, mi, ki, ni, pc, pa, pb, transA, md, seed)
	})
}
