package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedsu/internal/par"
)

// fillRand populates t with uniform values in [-1, 1).
func fillRand(t *Tensor, rng *rand.Rand) {
	for i := range t.data {
		t.data[i] = rng.Float64()*2 - 1
	}
}

// sameBits fails the test unless a and b are bitwise-identical float slices.
func sameBits(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d differs bitwise: %x vs %x (%g vs %g)",
				name, i, math.Float64bits(a[i]), math.Float64bits(b[i]), a[i], b[i])
		}
	}
}

// f64Of snapshots a tensor's elements for bit comparison.
func f64Of(x *Tensor) []float64 { return append([]float64(nil), x.data...) }

// TestParallelKernelsBitDeterministic checks the tentpole guarantee: every
// parallel kernel produces output bitwise identical to its serial execution,
// for random shapes and multiple worker counts. The
// parallel cutoff is forced to zero so even tiny problems route through the
// chunked code path.
func TestParallelKernelsBitDeterministic(t *testing.T) {
	prevCut := SetParallelCutoff(0)
	defer SetParallelCutoff(prevCut)

	rng := rand.New(rand.NewSource(42))
	shapes := make([][3]int, 0, 12)
	// Edge geometries around the register-tile (4) and panel boundaries,
	// plus random rectangles.
	shapes = append(shapes, [3]int{1, 1, 1}, [3]int{4, 128, 4}, [3]int{5, 129, 7}, [3]int{64, 64, 64})
	for i := 0; i < 8; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(200), 1 + rng.Intn(70)})
	}

	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k)
		b := New(k, n)
		at := New(k, m) // for MatMulTransA
		bt := New(n, k) // for MatMulTransB
		fillRand(a, rng)
		fillRand(b, rng)
		fillRand(at, rng)
		fillRand(bt, rng)
		acc0 := New(m, n)
		fillRand(acc0, rng)

		type out struct{ mm, ta, tb, ac []float64 }
		run := func(workers int) out {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			mm := MatMul(a, b)
			ta := MatMulTransA(at, b)
			tb := MatMulTransB(a, bt)
			ac := acc0.Clone()
			MatMulTransAAcc(ac, at, b)
			return out{f64Of(mm), f64Of(ta), f64Of(tb), f64Of(ac)}
		}

		serial := run(1)
		for _, w := range []int{4, 7} {
			got := run(w)
			tag := fmt.Sprintf("m=%d k=%d n=%d workers=%d", m, k, n, w)
			sameBits(t, "MatMul "+tag, serial.mm, got.mm)
			sameBits(t, "MatMulTransA "+tag, serial.ta, got.ta)
			sameBits(t, "MatMulTransB "+tag, serial.tb, got.tb)
			sameBits(t, "MatMulTransAAcc "+tag, serial.ac, got.ac)
		}
	}
}

// TestParallelConvLoweringBitDeterministic covers the convolution's three
// products the same way: serial and parallel executions agree bitwise on
// every tile this host runs, and all give the im2col
// lowering's bits.
func TestParallelConvLoweringBitDeterministic(t *testing.T) {
	prevCut := SetParallelCutoff(0)
	defer SetParallelCutoff(prevCut)

	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		n, c, h, w, outC int
		p                ConvParams
	}{
		{2, 3, 9, 9, 5, ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{1, 1, 5, 7, 4, ConvParams{KernelH: 2, KernelW: 4, StrideH: 2, StrideW: 1}},
		{3, 4, 8, 8, 9, ConvParams{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{5, 2, 28, 28, 8, ConvParams{KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}},
	}
	for ci, tc := range cases {
		oh, ow := tc.p.OutSize(tc.h, tc.w)
		k := tc.c * tc.p.KernelH * tc.p.KernelW
		x, w, bias := New(tc.n, tc.c, tc.h, tc.w), New(tc.outC, k), New(tc.outC)
		g, dw0 := New(tc.n, tc.outC, oh, ow), New(tc.outC, k)
		for _, r := range []*Tensor{x, w, bias, g, dw0} {
			fillRand(r, rng)
		}
		wantY, wantDw, wantDx := convLowered(x, w, bias, g, dw0, tc.p)

		run := func(workers int) (y, dw, dx []float64) {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			pl := NewConvPlan(tc.c, tc.h, tc.w, tc.outC, tc.p)
			src := x
			if pl.Padded() {
				src = New(tc.n, tc.c, tc.h+2*tc.p.PadH, tc.w+2*tc.p.PadW)
				PadInto(src, x, tc.p.PadH, tc.p.PadW)
			}
			yt, dwt, dxt := New(tc.n, tc.outC, oh, ow), dw0.Clone(), New(tc.n, tc.c, tc.h, tc.w)
			pl.Forward(yt, src, w, bias)
			pl.WeightGrad(dwt, src, g)
			pl.InputGrad(dxt, w, g)
			return f64Of(yt), f64Of(dwt), f64Of(dxt)
		}
		for _, l := range runnableLanes() {
			withTile(l, func() {
				for _, w := range []int{1, 4, 7} {
					y, dw, dx := run(w)
					tag := fmt.Sprintf("case=%d workers=%d tile=%s", ci, w, l.name)
					sameBits(t, "Forward "+tag, wantY, y)
					sameBits(t, "WeightGrad "+tag, wantDw, dw)
					sameBits(t, "InputGrad "+tag, wantDx, dx)
				}
			})
		}
	}
}

// TestSerialFallbackMatchesParallelPath confirms that flipping only the
// cutoff (serial fast path vs chunked parallel path at the same worker
// count) does not change a single bit — the guarantee that lets the cutoff
// be tuned freely.
func TestSerialFallbackMatchesParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := New(33, 65)
	b := New(65, 17)
	fillRand(a, rng)
	fillRand(b, rng)

	prevW := par.SetWorkers(4)
	defer par.SetWorkers(prevW)
	prevCut := SetParallelCutoff(1 << 62) // force serial fast path
	serial := MatMul(a, b)
	SetParallelCutoff(0) // force chunked path
	parallel := MatMul(a, b)
	SetParallelCutoff(prevCut)

	sameBits(t, "cutoff serial-vs-parallel", f64Of(serial), f64Of(parallel))
}
