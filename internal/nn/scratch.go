package nn

import "fedsu/internal/tensor"

// Step buffers. A layer's activations and input gradients have the same
// shape step after step, so each layer keeps them in fields, drawn from the
// tensor scratch arena and re-drawn only when the shape changes (a different
// batch size). The owner hands them back with Model.ReleaseScratch when it
// stops stepping, so an idle replica holds none of them.
//
// The lifetime rule this gives Forward and Backward: a tensor either returns
// is valid until the same model's next Forward, Backward or ReleaseScratch.
// Callers that need it longer Clone it.

// scratchHolder is implemented by layers and containers that keep step
// buffers.
type scratchHolder interface {
	// releaseScratch returns every held arena tensor and forgets it.
	releaseScratch()
}

// releaseScratchOf releases l's step buffers if it keeps any.
func releaseScratchOf(l Layer) {
	if h, ok := l.(scratchHolder); ok {
		h.releaseScratch()
	}
}

// stepScratch returns t if it already has the wanted shape; otherwise it
// releases t and draws a tensor of that shape from the arena. Contents are
// unspecified either way.
func stepScratch(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	if t != nil && hasShape(t, shape) {
		return t
	}
	tensor.PutScratch(t)
	return tensor.GetScratch(shape...)
}

func hasShape(t *tensor.Tensor, shape []int) bool {
	if t.Dims() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}

// stepScratchLike is stepScratch for the shape of x.
func stepScratchLike(t, x *tensor.Tensor) *tensor.Tensor {
	if t != nil && t.SameShape(x) {
		return t
	}
	return stepScratch(t, x.Shape()...)
}

// putScratch releases *t and clears it.
func putScratch(t **tensor.Tensor) {
	tensor.PutScratch(*t)
	*t = nil
}
