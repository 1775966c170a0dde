// Package tensor implements a dense, row-major float64 tensor library used
// as the numerical substrate for the neural-network training stack. Float32
// exists only on the wire: the convert kernels in vec.go narrow and widen the
// codec's 32-bit values.
//
// The package deliberately keeps a small surface: shape bookkeeping, element
// access, arithmetic, matrix multiplication, and the convolution products
// the layers need. Everything is backed by one flat slice so parameter
// vectors can be handed to the federated-learning layer without copies.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// DType names a tensor's element type. Float64 is the only one; the type
// remains only for bench/'s spelling of exp.Workload.ModelOf and
// data.Subset.SampleBatchOf, and ROADMAP item 14 deletes it with them.
type DType uint8

// Float64 is the element type of every tensor.
const Float64 DType = 0

// Tensor is a dense, row-major n-dimensional array of float64 values.
//
// The zero value is not usable; construct tensors with New, FromSlice, or
// the random initializers in random.go.
type Tensor struct {
	shape   []int
	strides []int
	data    []float64
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is non-positive, since a malformed shape is a programming error
// rather than a runtime condition.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    make([]float64, n),
	}
}

// FromSlice wraps data in a tensor with the given shape. The tensor
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

// Full returns a tensor of the given shape with every element set
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
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying flat slice. Mutating the returned slice
// mutates the tensor; this is intentional and heavily used by the optimizer
// and the federated synchronization layer.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

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

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies the contents of src into t. It panics if the volumes
// differ; shapes may differ as long as the element counts match, which is
// what the reshape-free federated sync layer relies on.
func (t *Tensor) CopyFrom(src *Tensor) {
	if t.Len() != src.Len() {
		panic(fmt.Sprintf("tensor: CopyFrom volume mismatch %d vs %d", t.Len(), src.Len()))
	}
	copy(t.data, src.data)
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
	}
}

// Zero sets every element to +0.
func (t *Tensor) Zero() { clear(t.data) }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) { fillSlice(t.data, v) }

func fillSlice(d []float64, v float64) {
	for i := range d {
		d[i] = v
	}
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float64) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AddScaled adds s*o to t element-wise in place. It panics on volume
// mismatch. This is the SGD update primitive.
func (t *Tensor) AddScaled(s float64, o *Tensor) {
	if t.Len() != o.Len() {
		panic(fmt.Sprintf("tensor: AddScaled volume mismatch %d vs %d", t.Len(), o.Len()))
	}
	src := o.data[:len(t.data)]
	for i := range t.data {
		t.data[i] += s * src[i]
	}
}

// Add adds o to t element-wise in place.
func (t *Tensor) Add(o *Tensor) { t.AddScaled(1, o) }

// Sub subtracts o from t element-wise in place.
func (t *Tensor) Sub(o *Tensor) { t.AddScaled(-1, o) }

// Mul multiplies t by o element-wise in place.
func (t *Tensor) Mul(o *Tensor) {
	if t.Len() != o.Len() {
		panic(fmt.Sprintf("tensor: Mul volume mismatch %d vs %d", t.Len(), o.Len()))
	}
	src := o.data[:len(t.data)]
	for i := range t.data {
		t.data[i] *= src[i]
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(t.Len()) }

// Norm returns the Euclidean (L2) norm of the flattened tensor.
func (t *Tensor) Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the largest element. For ties the first
// occurrence wins.
func (t *Tensor) ArgMax() int {
	bi := 0
	best := math.Inf(-1)
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// String renders a short human-readable description, truncating large
// tensors; it exists for debugging and test failure messages.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := t.Len()
	limit := n
	if limit > 8 {
		limit = 8
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if limit < n {
		fmt.Fprintf(&b, " ... (%d elems)", n)
	}
	b.WriteString("]")
	return b.String()
}
