// Package fl is the in-scope half of the ctxdispatch corpus: direct
// collective calls here must be flagged, dispatch-helper calls must not.
package fl

import (
	"context"

	"fedsu/internal/sparse"
)

// direct makes every forbidden call shape.
func direct(agg sparse.Aggregator, s sparse.Syncer) {
	agg.AggregateModel(0, 1, nil) // want `direct call to AggregateModel bypasses ctx-aware dispatch; use sparse.AggModel, or Wire.Collect from a strategy`
	agg.AggregateError(0, 1, nil) // want `direct call to AggregateError bypasses ctx-aware dispatch; use sparse.AggError, or Wire.Collect from a strategy`
	s.Sync(1, nil, true)          // want `direct call to Sync bypasses ctx-aware dispatch; use sparse.SyncContext`
}

// dispatched is the required idiom.
func dispatched(ctx context.Context, agg sparse.Aggregator, s sparse.Syncer) {
	sparse.AggModel(ctx, agg, 0, 1, nil)
	sparse.AggError(ctx, agg, 0, 1, nil)
	sparse.SyncContext(ctx, s, 1, nil, true)
}

// accounted is the strategies' idiom: the dispatcher goes to Collect as a
// value, and Collect makes the call.
func accounted(ctx context.Context, w *sparse.Wire, agg sparse.Aggregator) {
	w.Collect(ctx, sparse.AggModel, agg, 0, 1, nil, nil)
	w.Collect(ctx, sparse.AggError, agg, 0, 1, nil, nil)
}

// suppressed documents a sanctioned direct call.
func suppressed(agg sparse.Aggregator) {
	agg.AggregateModel(0, 1, nil) //lint:allow ctxdispatch -- corpus escape-hatch check
}

// server implements the interface; method declarations are not calls and
// must not be flagged.
type server struct{}

func (server) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	return values, nil
}

func (server) AggregateError(clientID, round int, values []float64) ([]float64, error) {
	return values, nil
}

// journal has an unrelated Sync with a different arity (the os.File.Sync
// shape); it must not be flagged.
type journal struct{}

func (journal) Sync() error { return nil }

func flush(j journal) error { return j.Sync() }
