package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{"vector", []int{7}, 7},
		{"matrix", []int{3, 4}, 12},
		{"nchw", []int{2, 3, 5, 5}, 150},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if got := x.Len(); got != tt.want {
				t.Errorf("Len() = %d, want %d", got, tt.want)
			}
			if got := x.Dims(); got != len(tt.shape) {
				t.Errorf("Dims() = %d, want %d", got, len(tt.shape))
			}
			for i, d := range tt.shape {
				if x.Dim(i) != d {
					t.Errorf("Dim(%d) = %d, want %d", i, x.Dim(i), d)
				}
			}
		})
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestAtSetRowMajorLayout(t *testing.T) {
	x := New(2, 3)
	x.Set(42, 1, 2)
	if got := x.Data()[5]; got != 42 {
		t.Errorf("row-major offset for (1,2) in 2x3 = data[5]; got data[5]=%v", got)
	}
	if got := x.At(1, 2); got != 42 {
		t.Errorf("At(1,2) = %v, want 42", got)
	}
}

func TestFromSliceOwnership(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 99
	if x.At(0, 0) != 99 {
		t.Error("FromSlice must wrap, not copy, the provided slice")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	c := x.Clone()
	c.Data()[0] = 7
	if x.At(0) != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(9, 0, 1)
	if x.At(0, 1) != 9 {
		t.Error("Reshape must be a view over the same data")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reshape with mismatched volume did not panic")
			}
		}()
		x.Reshape(4, 2)
	}()
}

func TestArithmetic(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	a.AddScaled(0.5, b)
	want := []float64{6, 12, 18}
	for i, w := range want {
		if a.At(i) != w {
			t.Errorf("AddScaled result[%d] = %v, want %v", i, a.At(i), w)
		}
	}
	a.Sub(b)
	if a.At(0) != -4 {
		t.Errorf("Sub result[0] = %v, want -4", a.At(0))
	}
	a.Scale(2)
	if a.At(0) != -8 {
		t.Errorf("Scale result[0] = %v, want -8", a.At(0))
	}
	c := FromSlice([]float64{2, 3, 4}, 3)
	c.Mul(FromSlice([]float64{5, 6, 7}, 3))
	if c.At(2) != 28 {
		t.Errorf("Mul result[2] = %v, want 28", c.At(2))
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, -4, 0}, 3)
	if got := x.Sum(); got != -1 {
		t.Errorf("Sum = %v, want -1", got)
	}
	if got := x.Norm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := x.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v, want 4", got)
	}
	if got := x.ArgMax(); got != 0 {
		t.Errorf("ArgMax = %v, want 0", got)
	}
	if got := x.Mean(); math.Abs(got+1.0/3) > 1e-12 {
		t.Errorf("Mean = %v, want -1/3", got)
	}
}

func TestMatMulHandComputed(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Errorf("MatMul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulTransposedVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 6)
	b := New(6, 5)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)

	ref := MatMul(a, b)

	// A stored transposed: at is 6x4 with atᵀ = a.
	at := New(6, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	got := MatMulTransA(at, b)
	assertClose(t, "MatMulTransA", ref, got, 1e-12)

	// B stored transposed: bt is 5x6 with btᵀ = b.
	bt := New(5, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			bt.Set(b.At(i, j), j, i)
		}
	}
	got = MatMulTransB(a, bt)
	assertClose(t, "MatMulTransB", ref, got, 1e-12)

	dst := New(4, 5)
	MatMulInto(dst, a, b)
	assertClose(t, "MatMulInto", ref, dst, 1e-12)
}

func assertClose(t *testing.T, name string, want, got *Tensor, tol float64) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
	}
	for i := range want.Data() {
		if math.Abs(want.Data()[i]-got.Data()[i]) > tol {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got.Data()[i], want.Data()[i])
		}
	}
}

// Property: matrix multiplication distributes over addition,
// A×(B+C) = A×B + A×C.
func TestMatMulDistributesOverAddition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := New(3, 4), New(4, 2), New(4, 2)
		a.RandNormal(rng, 0, 1)
		b.RandNormal(rng, 0, 1)
		c.RandNormal(rng, 0, 1)
		bc := b.Clone()
		bc.Add(c)
		left := MatMul(a, bc)
		right := MatMul(a, b)
		right.Add(MatMul(a, c))
		for i := range left.Data() {
			if math.Abs(left.Data()[i]-right.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// A 1x1 kernel with stride 1 and no padding must reproduce the input.
	x := New(1, 2, 3, 3)
	for i := range x.Data() {
		x.Data()[i] = float64(i)
	}
	p := ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
	cols := im2col(x, p)
	if cols.Dim(0) != 2 || cols.Dim(1) != 9 {
		t.Fatalf("im2col shape = %v, want [2 9]", cols.Shape())
	}
	for i := range x.Data() {
		if cols.Data()[i] != x.Data()[i] {
			t.Fatalf("identity im2col mismatch at %d", i)
		}
	}
}

func TestIm2ColKnownPatch(t *testing.T) {
	// 1x1x3x3 input, 2x2 kernel, stride 1, no padding → 4 output positions.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	p := ConvParams{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}
	cols := im2col(x, p)
	// Row layout: (kh,kw) in row-major; columns are output positions.
	want := [][]float64{
		{1, 2, 4, 5}, // kh=0 kw=0
		{2, 3, 5, 6}, // kh=0 kw=1
		{4, 5, 7, 8}, // kh=1 kw=0
		{5, 6, 8, 9}, // kh=1 kw=1
	}
	for r, row := range want {
		for c, w := range row {
			if got := cols.At(r, c); got != w {
				t.Errorf("cols[%d,%d] = %v, want %v", r, c, got, w)
			}
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	x := Full(1, 1, 1, 2, 2)
	p := ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cols := im2col(x, p)
	// Center kernel tap (kh=1,kw=1) always lands inside → all ones.
	centerRow := (1*3 + 1)
	for c := 0; c < cols.Dim(1); c++ {
		if cols.At(centerRow, c) != 1 {
			t.Errorf("center tap col %d = %v, want 1", c, cols.At(centerRow, c))
		}
	}
	// Corner tap (kh=0,kw=0) at output (0,0) reads padding → zero.
	if cols.At(0, 0) != 0 {
		t.Errorf("corner tap reads padding, got %v want 0", cols.At(0, 0))
	}
}

// Property: col2im is the adjoint of im2col — for random x and y,
// ⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩. This is the exact identity the conv
// backward pass relies on, checked on the reference lowering
// (conv_ref_test.go) the products are held to.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		n, c, h, w := 2, 3, 5, 5
		x := New(n, c, h, w)
		x.RandNormal(rng, 0, 1)
		cols := im2col(x, p)
		y := New(cols.Dim(0), cols.Dim(1))
		y.RandNormal(rng, 0, 1)
		lhs := 0.0
		for i := range cols.Data() {
			lhs += cols.Data()[i] * y.Data()[i]
		}
		back := col2im(y, n, c, h, w, p)
		rhs := 0.0
		for i := range x.Data() {
			rhs += x.Data()[i] * back.Data()[i]
		}
		return math.Abs(lhs-rhs) < 1e-8*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConvParamsOutSize(t *testing.T) {
	tests := []struct {
		name   string
		p      ConvParams
		h, w   int
		oh, ow int
	}{
		{"same-3x3", ConvParams{3, 3, 1, 1, 1, 1}, 28, 28, 28, 28},
		{"valid-5x5", ConvParams{5, 5, 1, 1, 0, 0}, 28, 28, 24, 24},
		{"stride2", ConvParams{3, 3, 2, 2, 1, 1}, 32, 32, 16, 16},
		{"pool2", ConvParams{2, 2, 2, 2, 0, 0}, 24, 24, 12, 12},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			oh, ow := tt.p.OutSize(tt.h, tt.w)
			if oh != tt.oh || ow != tt.ow {
				t.Errorf("OutSize(%d,%d) = (%d,%d), want (%d,%d)", tt.h, tt.w, oh, ow, tt.oh, tt.ow)
			}
		})
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := New(10000)
	x.KaimingNormal(rng, 50)
	wantStd := math.Sqrt(2.0 / 50)
	var sum, sumSq float64
	for _, v := range x.Data() {
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(x.Len())
	std := math.Sqrt(sumSq/float64(x.Len()) - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Errorf("Kaiming mean = %v, want ~0", mean)
	}
	if math.Abs(std-wantStd)/wantStd > 0.05 {
		t.Errorf("Kaiming std = %v, want ~%v", std, wantStd)
	}

	y := New(10000)
	y.XavierUniform(rng, 30, 70)
	limit := math.Sqrt(6.0 / 100)
	for _, v := range y.Data() {
		if v < -limit || v >= limit {
			t.Fatalf("Xavier sample %v outside [-%v, %v)", v, limit, limit)
		}
	}
}
