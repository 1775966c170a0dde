// Package scratch is the pairing corpus: every function is either a
// leak the analyzer must report (marked with a want comment) or a correct
// pairing it must stay silent about.
package scratch

import "fedsu/internal/tensor"

type layer struct {
	cached *tensor.Tensor
}

// balanced is the baseline: acquire, use, release, return.
func balanced(n int) float64 {
	t := tensor.GetScratch(n)
	sum := 0.0
	for _, v := range t.Data() {
		sum += v
	}
	tensor.PutScratch(t)
	return sum
}

// leakEarlyReturn forgets the release on the error path — the exact shape
// of the layer backward regressions this analyzer exists to prevent.
func leakEarlyReturn(n int) error {
	t := tensor.GetScratch(n) // want `scratch tensor "t" is not released by PutScratch`
	if n < 0 {
		return errTooSmall
	}
	tensor.PutScratch(t)
	return nil
}

// releasedOnAllBranches puts on both the early and the normal return.
func releasedOnAllBranches(n int) error {
	t := tensor.GetScratch(n)
	if n < 0 {
		tensor.PutScratch(t)
		return errTooSmall
	}
	tensor.PutScratch(t)
	return nil
}

// deferredRelease covers every exit with one defer.
func deferredRelease(n int) error {
	t := tensor.GetScratch(n)
	defer tensor.PutScratch(t)
	if n < 0 {
		return errTooSmall
	}
	return nil
}

// deferredClosureRelease releases inside a deferred closure.
func deferredClosureRelease(n int) {
	t := tensor.GetScratch(n)
	defer func() {
		t.Data()[0] = 0
		tensor.PutScratch(t)
	}()
}

// transferReturn hands ownership to the caller.
func transferReturn(n int) *tensor.Tensor {
	t := tensor.GetScratch(n)
	return t
}

// transferField retains the tensor on the layer, the Conv2D im2col
// pattern: Backward releases it later.
func (l *layer) transferField(n int) {
	t := tensor.GetScratch(n)
	l.cached = t
}

// discarded can never be released.
func discarded(n int) {
	tensor.GetScratch(n) // want `GetScratch result discarded`
}

// leakInLoop acquires per iteration without releasing.
func leakInLoop(n int) {
	for i := 0; i < n; i++ {
		t := tensor.GetScratch(n) // want `scratch tensor "t" acquired in a loop body is still held`
		t.Data()[0] = float64(i)
	}
}

// balancedInLoop releases within each iteration.
func balancedInLoop(n int) {
	for i := 0; i < n; i++ {
		t := tensor.GetScratch(n)
		t.Data()[0] = float64(i)
		tensor.PutScratch(t)
	}
}

// leakOneSwitchArm misses the release in a single case.
func leakOneSwitchArm(kind string, n int) {
	t := tensor.GetScratch(n) // want `scratch tensor "t" is not released by PutScratch`
	switch kind {
	case "model":
		tensor.PutScratch(t)
	case "error":
		_ = t.Data()
	default:
		tensor.PutScratch(t)
	}
}

// swapThenRelease is a recurrent double-buffer pattern: the set of held
// tensors is unchanged by the swap and both are released.
func swapThenRelease(n, steps int) {
	a := tensor.GetScratch(n)
	b := tensor.GetScratch(n)
	for t := 0; t < steps; t++ {
		a, b = b, a
	}
	tensor.PutScratch(a)
	tensor.PutScratch(b)
}

// suppressed documents a deliberate leak with the escape hatch.
func suppressed(n int) *tensor.Tensor {
	//lint:allow pairing -- handed to cgo in the real code this mimics
	t := tensor.GetScratch(n)
	u := t
	return u
}

var errTooSmall = errorString("too small")

type errorString string

func (e errorString) Error() string { return string(e) }

// leakOnBreak leaves the loop with the tensor still held: break skips the
// release.
func leakOnBreak(n int) {
	for i := 0; i < n; i++ {
		t := tensor.GetScratch(n) // want `scratch tensor "t" is not released by PutScratch`
		if i == 3 {
			break
		}
		tensor.PutScratch(t)
	}
}

// leakOnContinue skips the release and draws again on the next spin.
func leakOnContinue(n int) {
	for i := 0; i < n; i++ {
		t := tensor.GetScratch(n) // want `acquired in a loop body is still held`
		if i == 3 {
			continue
		}
		tensor.PutScratch(t)
	}
}

// leakOnGoto jumps past the release.
func leakOnGoto(n int) {
	t := tensor.GetScratch(n) // want `is not released by PutScratch`
	if n > 3 {
		goto out
	}
	tensor.PutScratch(t)
out:
	return
}
