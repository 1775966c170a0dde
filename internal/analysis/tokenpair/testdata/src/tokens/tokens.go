// Corpus for the tokenpair analyzer: compute-token pairing and the
// release-before-barrier ordering rule. The analyzer is table-matched
// against fedsu/internal/par and the barrier dispatchers, so this corpus
// can live at any import path.
package tokens

import (
	"context"

	"fedsu/internal/fl"
	"fedsu/internal/par"
	"fedsu/internal/sparse"
)

func train() float64 { return 0 }

// --- negative cases ---

// The engine pattern: acquire around local compute, release BEFORE the
// collective barrier.
func okReleaseBeforeBarrier(ctx context.Context, vec []float64) {
	par.AcquireToken()
	train()
	par.ReleaseToken()
	sparse.SyncContext(ctx, nil, 1, vec, true)
}

// Naming a dispatcher as Collect's argument is not a call of it; the
// barrier is the Collect call, here reached with the token released.
func okReleaseBeforeCollect(ctx context.Context, w *sparse.Wire, agg sparse.Aggregator, vec []float64) {
	par.AcquireToken()
	train()
	par.ReleaseToken()
	w.Collect(ctx, sparse.AggModel, agg, 0, 1, vec, nil)
}

func okDeferredRelease() float64 {
	par.AcquireToken()
	defer par.ReleaseToken()
	return train()
}

// The async-engine future: release before the completion send.
func okReleaseBeforeSend(ch chan float64) {
	par.AcquireToken()
	loss := train()
	par.ReleaseToken()
	ch <- loss
}

// Balanced on both branches.
func okBranchBalanced(c bool) {
	par.AcquireToken()
	if c {
		train()
		par.ReleaseToken()
		return
	}
	par.ReleaseToken()
}

// Cycled per iteration: every spin releases what it acquired.
func okLoopCycled(n int) {
	for i := 0; i < n; i++ {
		par.AcquireToken()
		train()
		par.ReleaseToken()
	}
}

// Holding a token across the pool dispatch is the intended pattern;
// Parallelize is not a rendezvous with other token holders.
func okHoldAcrossParallelize(n int) {
	par.AcquireToken()
	par.ParallelizeGrain(n, 4, func(lo, hi int) {})
	par.ReleaseToken()
}

// A panicking path is exempt from the exit balance (the process is gone).
func okPanicPath(c bool) {
	par.AcquireToken()
	if c {
		panic("invariant")
	}
	par.ReleaseToken()
}

// --- positive cases ---

// Leak: the error path returns without releasing. The balance diagnostic
// anchors at the first acquisition.
func badLeakOnEarlyReturn(c bool) error {
	par.AcquireToken() // want `not balanced by ReleaseToken on every path`
	if c {
		return errFailed
	}
	train()
	par.ReleaseToken()
	return nil
}

var errFailed error

// Leak: acquired in a loop, released once after it. (The nested-acquire
// report is must-held only, and the zero-iteration path has not acquired,
// so the loop shape surfaces as an exit imbalance.)
func badLoopLeak(n int) {
	for i := 0; i < n; i++ {
		par.AcquireToken() // want `not balanced by ReleaseToken on every path`
	}
	par.ReleaseToken()
}

// Over-release: panics at runtime, flagged at build time.
func badOverRelease() {
	par.ReleaseToken() // want `ReleaseToken without a matching AcquireToken`
}

// Nested acquisition on a must-held path.
func badNested() {
	par.AcquireToken()
	par.AcquireToken() // want `AcquireToken while a token is already held`
	par.ReleaseToken()
	par.ReleaseToken()
}

// The PR 5 ordering rule: token held across the collective barrier.
func badHoldAcrossBarrier(ctx context.Context, vec []float64) {
	par.AcquireToken()
	train()
	sparse.SyncContext(ctx, nil, 1, vec, true) // want `compute token held across collective barrier SyncContext`
	par.ReleaseToken()
}

func badHoldAcrossAggModel(ctx context.Context, agg sparse.Aggregator, vec []float64) {
	par.AcquireToken()
	defer par.ReleaseToken()
	sparse.AggModel(ctx, agg, 0, 1, vec) // want `compute token held across collective barrier AggModel`
}

// The strategies' accounting front of the same two collectives.
func badHoldAcrossCollect(ctx context.Context, w *sparse.Wire, agg sparse.Aggregator, vec []float64) {
	par.AcquireToken()
	defer par.ReleaseToken()
	w.Collect(ctx, sparse.AggModel, agg, 0, 1, vec, nil) // want `compute token held across collective barrier Collect`
}

// A deferred release does not excuse a mid-function rendezvous: it runs
// at exit, after the handshake has already deadlocked.
func badHoldAcrossSend(ch chan float64) {
	par.AcquireToken()
	defer par.ReleaseToken()
	ch <- train() // want `compute token held across channel send`
}

func badHoldAcrossReceive(ch chan float64) float64 {
	par.AcquireToken()
	defer par.ReleaseToken()
	return <-ch // want `compute token held across channel receive`
}

// Sanctioned exception, annotated with a reason.
func okAnnotatedHold(ch chan float64) {
	par.AcquireToken()
	defer par.ReleaseToken()
	ch <- train() //lint:allow tokenpair -- corpus replica: the receiver is a buffered channel drained by a non-token-holding consumer
}

// --- hierarchical-collective cases (PR 9) ---

// The relay pattern: fold the block under the token, release, THEN park
// on the partial ingest (which blocks until the root publishes).
func okReleaseBeforePartial(t *fl.Tree, sum []float64) ([]float64, error) {
	par.AcquireToken()
	train()
	par.ReleaseToken()
	return t.AggregatePartial(0, "model", 0, sum, 8)
}

// Holding the token across the tree barrier starves the cohort exactly
// like the flat SyncRound case: the root cannot publish until every
// block's partial lands, and the other submitters need tokens to fold.
func badHoldAcrossPartial(t *fl.Tree, sum []float64) {
	par.AcquireToken()
	train()
	t.AggregatePartial(0, "model", 0, sum, 8) // want `compute token held across collective barrier AggregatePartial`
	par.ReleaseToken()
}

func badHoldAcrossPartialCtx(ctx context.Context, t *fl.Tree, sum []float64) ([]float64, error) {
	par.AcquireToken()
	defer par.ReleaseToken()
	return t.AggregatePartialCtx(ctx, 0, "model", 0, sum, 8) // want `compute token held across collective barrier AggregatePartialCtx`
}
