// Package tensor implements a dense, row-major tensor library used as the
// numerical substrate for the neural-network training stack, computing in
// either float64 (the default) or float32 (the reduced-precision path that
// matches the 32-bit wire codec).
//
// The package deliberately keeps a small surface: shape bookkeeping, element
// access, arithmetic, matrix multiplication, and the im2col transforms that
// the convolution layers need. Everything is backed by one flat slice at the
// tensor's dtype so parameter vectors can be handed to the federated-learning
// layer without copies (float64 tensors) or with a single exact widening pass
// (float32 tensors, via CopyToF64).
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major n-dimensional array of float64 or float32
// values. Exactly one of the two backing slices is non-nil, selected by the
// dtype tag; the zero value of the tag is Float64, so tensors built by New
// and FromSlice behave exactly as they did before precision was
// configurable.
//
// The zero value is not usable; construct tensors with New, NewOf,
// FromSlice, or the random initializers in random.go.
type Tensor struct {
	shape   []int
	strides []int
	data    []float64
	data32  []float32
	dt      DType
}

// New returns a zero-filled float64 tensor with the given shape. It panics
// if any dimension is non-positive, since a malformed shape is a programming
// error rather than a runtime condition.
func New(shape ...int) *Tensor {
	return NewOf(Float64, shape...)
}

// NewOf returns a zero-filled tensor of the given dtype and shape.
func NewOf(dt DType, shape ...int) *Tensor {
	n := checkShape(shape)
	t := &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		dt:      dt,
	}
	if dt == Float32 {
		t.data32 = make([]float32, n)
	} else {
		t.data = make([]float64, n)
	}
	return t
}

// FromSlice wraps data in a float64 tensor with the given shape. The tensor
// takes ownership of data; the caller must not mutate it afterwards. It
// panics if the length of data does not match the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    data,
	}
}

// FromSliceOf wraps data in a tensor of the matching dtype — the generic
// counterpart of FromSlice used by precision-parameterized layers to view
// caller-owned buffers (e.g. the LSTM step caches) as tensors without a
// copy. Ownership transfers like FromSlice.
func FromSliceOf[E Elem](data []E, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	t := &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		dt:      dtypeOf[E](),
	}
	switch d := any(data).(type) {
	case []float32:
		t.data32 = d
	case []float64:
		t.data = d
	}
	return t
}

// Full returns a float64 tensor of the given shape with every element set
// to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	t.Fill(v)
	return t
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Formatting a copy keeps shape itself from escaping, so callers'
			// variadic shape lists stay on their stacks.
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = acc
		acc *= shape[i]
	}
	return strides
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int {
	if t.dt == Float32 {
		return len(t.data32)
	}
	return len(t.data)
}

// DType returns the tensor's element type.
func (t *Tensor) DType() DType { return t.dt }

// Data returns the underlying flat slice of a float64 tensor. Mutating the
// returned slice mutates the tensor; this is intentional and heavily used by
// the optimizer and the federated synchronization layer. It panics on a
// float32 tensor — precision-parameterized code uses DataOf, and the
// float64-domain sync layer uses CopyToF64/CopyFromF64.
func (t *Tensor) Data() []float64 {
	if t.dt != Float64 {
		panic(fmt.Sprintf("tensor: Data on %s tensor (use DataOf or CopyToF64)", t.dt))
	}
	return t.data
}

// Data32 returns the underlying flat slice of a float32 tensor, panicking
// on a float64 tensor. The aliasing contract matches Data.
func (t *Tensor) Data32() []float32 {
	if t.dt != Float32 {
		panic(fmt.Sprintf("tensor: Data32 on %s tensor", t.dt))
	}
	return t.data32
}

// CopyToF64 writes the tensor's elements into dst as float64. For float32
// tensors the widening is exact, so this is the lossless direction of the
// precision boundary between storage dtype and the float64 sync-vector
// domain. It panics if len(dst) differs from the element count.
func (t *Tensor) CopyToF64(dst []float64) {
	if len(dst) != t.Len() {
		panic(fmt.Sprintf("tensor: CopyToF64 length mismatch %d vs %d", len(dst), t.Len()))
	}
	if t.dt == Float32 {
		for i, v := range t.data32 {
			dst[i] = float64(v) //lint:allow precision -- exact float32→float64 widening at the sync boundary
		}
		return
	}
	copy(dst, t.data)
}

// CopyFromF64 overwrites the tensor's elements from src, rounding each
// value to the storage dtype. For float32 tensors this is the single,
// deterministic quantization point of the sync boundary — the same
// round-to-nearest float32 conversion the wire codec applies, so a model
// loaded from a decoded wire vector is bit-identical to one loaded from the
// in-process vector. It panics if len(src) differs from the element count.
func (t *Tensor) CopyFromF64(src []float64) {
	if len(src) != t.Len() {
		panic(fmt.Sprintf("tensor: CopyFromF64 length mismatch %d vs %d", len(src), t.Len()))
	}
	if t.dt == Float32 {
		for i, v := range src {
			t.data32[i] = float32(v) //lint:allow precision -- the one deterministic float64→float32 rounding site of the sync boundary
		}
		return
	}
	copy(t.data, src)
}

// At returns the element at the given multi-dimensional index, widened to
// float64 (exact for both dtypes).
func (t *Tensor) At(idx ...int) float64 {
	off := t.offset(idx)
	if t.dt == Float32 {
		return float64(t.data32[off]) //lint:allow precision -- exact widening accessor
	}
	return t.data[off]
}

// Set assigns v to the element at the given multi-dimensional index,
// rounding to the storage dtype.
func (t *Tensor) Set(v float64, idx ...int) {
	off := t.offset(idx)
	if t.dt == Float32 {
		t.data32[off] = float32(v) //lint:allow precision -- rounding accessor, mirrors CopyFromF64
		return
	}
	t.data[off] = v
}

// flatAt returns element i of the flattened tensor, widened to float64.
func (t *Tensor) flatAt(i int) float64 {
	if t.dt == Float32 {
		return float64(t.data32[i]) //lint:allow precision -- exact widening accessor
	}
	return t.data[i]
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong arity for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off += x * t.strides[i]
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the tensor, preserving its dtype.
func (t *Tensor) Clone() *Tensor {
	c := NewOf(t.dt, t.shape...)
	copy(c.data, t.data)
	copy(c.data32, t.data32)
	return c
}

// CopyFrom copies the contents of src into t. It panics if the volumes or
// dtypes differ; shapes may differ as long as the element counts match,
// which is what the reshape-free federated sync layer relies on.
func (t *Tensor) CopyFrom(src *Tensor) {
	checkSameDType("CopyFrom", t, src)
	if t.Len() != src.Len() {
		panic(fmt.Sprintf("tensor: CopyFrom volume mismatch %d vs %d", t.Len(), src.Len()))
	}
	copy(t.data, src.data)
	copy(t.data32, src.data32)
}

// Reshape returns a view of t with a new shape covering the same data.
// It panics if the volume differs.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != t.Len() {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", t.Len(), shape))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    t.data,
		data32:  t.data32,
		dt:      t.dt,
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	if t.dt == Float32 {
		fillSlice(t.data32, 0)
		return
	}
	fillSlice(t.data, 0)
}

// Fill sets every element to v, rounded to the storage dtype.
func (t *Tensor) Fill(v float64) {
	if t.dt == Float32 {
		fillSlice(t.data32, float32(v)) //lint:allow precision -- scalar rounds once at the call boundary
		return
	}
	fillSlice(t.data, v)
}

// Scale multiplies every element by s in place; s rounds once to the
// storage dtype, then the per-element arithmetic runs at that width.
func (t *Tensor) Scale(s float64) {
	if t.dt == Float32 {
		scaleSlice(t.data32, float32(s)) //lint:allow precision -- scalar rounds once at the call boundary
		return
	}
	scaleSlice(t.data, s)
}

// AddScaled adds s*o to t element-wise in place. It panics on volume or
// dtype mismatch. This is the SGD update primitive; at float32 the scalar
// rounds once and each fused term computes at storage width.
func (t *Tensor) AddScaled(s float64, o *Tensor) {
	checkSameDType("AddScaled", t, o)
	if t.Len() != o.Len() {
		panic(fmt.Sprintf("tensor: AddScaled volume mismatch %d vs %d", t.Len(), o.Len()))
	}
	if t.dt == Float32 {
		addScaledSlice(t.data32, o.data32, float32(s)) //lint:allow precision -- scalar rounds once at the call boundary
		return
	}
	addScaledSlice(t.data, o.data, s)
}

// Add adds o to t element-wise in place.
func (t *Tensor) Add(o *Tensor) { t.AddScaled(1, o) }

// Sub subtracts o from t element-wise in place.
func (t *Tensor) Sub(o *Tensor) { t.AddScaled(-1, o) }

// Mul multiplies t by o element-wise in place.
func (t *Tensor) Mul(o *Tensor) {
	checkSameDType("Mul", t, o)
	if t.Len() != o.Len() {
		panic(fmt.Sprintf("tensor: Mul volume mismatch %d vs %d", t.Len(), o.Len()))
	}
	if t.dt == Float32 {
		mulSlice(t.data32, o.data32)
		return
	}
	mulSlice(t.data, o.data)
}

// Sum returns the sum of all elements, accumulated in float64 regardless of
// storage dtype: whole-tensor reductions sum O(n) terms, where float32
// accumulation would lose bits to cancellation long before the result is
// stored.
func (t *Tensor) Sum() float64 {
	if t.dt == Float32 {
		return sumSlice(t.data32)
	}
	return sumSlice(t.data)
}

// Mean returns the arithmetic mean of all elements (float64 accumulation,
// like Sum).
func (t *Tensor) Mean() float64 { return t.Sum() / float64(t.Len()) }

// Norm returns the Euclidean (L2) norm of the flattened tensor, accumulated
// in float64 like Sum.
func (t *Tensor) Norm() float64 {
	if t.dt == Float32 {
		return math.Sqrt(sumSqSlice(t.data32))
	}
	return math.Sqrt(sumSqSlice(t.data))
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float64 {
	if t.dt == Float32 {
		return maxAbsSlice(t.data32)
	}
	return maxAbsSlice(t.data)
}

// ArgMax returns the flat index of the largest element. For ties the first
// occurrence wins.
func (t *Tensor) ArgMax() int {
	if t.dt == Float32 {
		return argMaxSlice(t.data32)
	}
	return argMaxSlice(t.data)
}

// String renders a short human-readable description, truncating large
// tensors; it exists for debugging and test failure messages.
func (t *Tensor) String() string {
	var b strings.Builder
	if t.dt == Float32 {
		fmt.Fprintf(&b, "Tensor(f32)%v[", t.shape)
	} else {
		fmt.Fprintf(&b, "Tensor%v[", t.shape)
	}
	n := t.Len()
	limit := n
	if limit > 8 {
		limit = 8
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.flatAt(i))
	}
	if limit < n {
		fmt.Fprintf(&b, " ... (%d elems)", n)
	}
	b.WriteString("]")
	return b.String()
}

// ---- generic element-wise and reduction kernels ----
//
// Each public method above dispatches once on the dtype tag and runs one of
// these width-parameterized loops; the Go compiler stencils a separate body
// per element type, so both widths keep their scalars in registers.

func fillSlice[E Elem](d []E, v E) {
	for i := range d {
		d[i] = v
	}
}

func scaleSlice[E Elem](d []E, s E) {
	for i := range d {
		d[i] *= s
	}
}

func addScaledSlice[E Elem](dst, src []E, s E) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += s * src[i]
	}
}

func mulSlice[E Elem](dst, src []E) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] *= src[i]
	}
}

// sumSlice accumulates in float64 at either storage width: whole-tensor
// sums feed loss and statistics paths where float32 accumulation error grows
// with n.
func sumSlice[E Elem](d []E) float64 {
	s := 0.0
	for _, v := range d {
		s += float64(v) //lint:allow precision -- exact widening into the float64 reduction accumulator
	}
	return s
}

func sumSqSlice[E Elem](d []E) float64 {
	s := 0.0
	for _, v := range d {
		f := float64(v) //lint:allow precision -- exact widening into the float64 reduction accumulator
		s += f * f
	}
	return s
}

func maxAbsSlice[E Elem](d []E) float64 {
	var m E
	for _, v := range d {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return float64(m) //lint:allow precision -- exact widening of a comparison result
}

func argMaxSlice[E Elem](d []E) int {
	bi := 0
	best := math.Inf(-1)
	for i, v := range d {
		if f := float64(v); f > best { //lint:allow precision -- exact widening for comparison only
			best, bi = f, i
		}
	}
	return bi
}
