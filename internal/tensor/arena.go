package tensor

import (
	"math/bits"
	"sync"
)

// The scratch arena recycles short-lived tensors — im2col matrices,
// activation reorder buffers, transposed operands — that the training loop
// would otherwise allocate and discard every step. Whole *Tensor
// objects are pooled (storage, shape and stride slices included) in
// power-of-two size classes, so a steady-state Get/Put pair performs no
// allocation at all; fragmentation is bounded at 2×.
//
// Contract: GetScratch returns a tensor with UNSPECIFIED contents (kernels
// writing into it must fully overwrite or zero it — every *Into kernel in
// this package does), and PutScratch transfers ownership back to the arena,
// which will hand the same object to a later GetScratch. A released tensor,
// or any view aliasing its storage (Reshape), must not be touched
// afterwards. The arena is safe for concurrent use; the federated engine's
// per-client goroutines share it.

// arenaClasses covers 2^0 .. 2^(arenaClasses-1) elements; 2^26 float64s is
// 512 MiB, far beyond any model in the zoo — larger requests bypass the
// arena and fall to the GC.
const arenaClasses = 27

var arenas [arenaClasses]sync.Pool

func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1)) // ceil(log2 n)
}

// setShape points t at the given shape, reusing its shape/stride slices
// when their capacity allows so reshaping a recycled tensor is
// allocation-free.
func (t *Tensor) setShape(shape []int) {
	d := len(shape)
	if cap(t.shape) >= d {
		t.shape = t.shape[:d]
		t.strides = t.strides[:d]
	} else {
		t.shape = make([]int, d)
		t.strides = make([]int, d)
	}
	copy(t.shape, shape)
	acc := 1
	for i := d - 1; i >= 0; i-- {
		t.strides[i] = acc
		acc *= shape[i]
	}
}

// GetScratch returns a tensor of the given shape backed by pooled storage.
// The contents are unspecified; callers must overwrite before reading.
func GetScratch(shape ...int) *Tensor {
	n := checkShape(shape)
	c := sizeClass(n)
	if c >= arenaClasses { // beyond the largest class: plain allocation
		return New(shape...)
	}
	t, ok := arenas[c].Get().(*Tensor)
	if !ok {
		t = &Tensor{data: make([]float64, 1<<uint(c))}
	}
	t.data = t.data[:n]
	t.setShape(shape)
	return t
}

// PutScratch returns a tensor to the arena, which will recycle the whole
// object. Passing nil is a no-op so callers can release optimistically. The
// tensor (and any view of it) must not be used afterwards.
func PutScratch(t *Tensor) {
	if t == nil {
		return
	}
	c := cap(t.data)
	if c == 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1 // floor(log2 cap): pooled objects satisfy Get(n ≤ 2^cls)
	if cls >= arenaClasses {
		return
	}
	t.data = t.data[:c]
	arenas[cls].Put(t)
}
