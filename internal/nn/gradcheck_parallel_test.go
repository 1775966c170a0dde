package nn

import (
	"math/rand"
	"testing"

	"fedsu/internal/par"
	"fedsu/internal/tensor"
)

// TestGradCheckThroughParallelKernels re-runs the layer gradient checks
// with the worker pool engaged and the parallel cutoff forced to zero, so
// every matmul / im2col / col2im in Forward and Backward takes the chunked
// multi-worker code path. Because the parallel kernels are bit-identical to
// their serial forms, the same finite-difference tolerances must hold.
func TestGradCheckThroughParallelKernels(t *testing.T) {
	prevW := par.SetWorkers(4)
	defer par.SetWorkers(prevW)
	prevCut := tensor.SetParallelCutoff(0)
	defer tensor.SetParallelCutoff(prevCut)

	rng := rand.New(rand.NewSource(1))
	t.Run("linear", func(t *testing.T) {
		gradCheck(t, NewLinear(rng, 6, 4), randInput(2, 3, 6), 1e-4)
	})
	t.Run("conv", func(t *testing.T) {
		gradCheck(t, NewConv2D(rng, 2, 3, 3, WithPadding(1)), randInput(3, 2, 2, 8, 8), 1e-4)
	})
}
