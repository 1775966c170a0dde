// Package sparse is a miniature replica of the real dispatch API for the
// ctxdispatch corpus. The dispatch helpers themselves legitimately make
// the direct calls — they are the single sanctioned call site, and they
// live outside the analyzer's fl/flrpc scope.
package sparse

import "context"

// Traffic mirrors the real traffic accounting struct.
type Traffic struct{ UpBytes, DownBytes int }

// Aggregator mirrors the real collective interface.
type Aggregator interface {
	AggregateModel(clientID, round int, values []float64) ([]float64, error)
	AggregateError(clientID, round int, values []float64) ([]float64, error)
}

// ContextAggregator is the ctx-aware fast path.
type ContextAggregator interface {
	AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error)
	AggregateErrorCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error)
}

// Syncer mirrors the real strategy interface.
type Syncer interface {
	Sync(round int, local []float64, contributor bool) ([]float64, Traffic, error)
}

// ContextSyncer is the ctx-aware fast path.
type ContextSyncer interface {
	SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, Traffic, error)
}

// AggModel dispatches a model submission.
func AggModel(ctx context.Context, agg Aggregator, clientID, round int, values []float64) ([]float64, error) {
	if ca, ok := agg.(ContextAggregator); ok {
		return ca.AggregateModelCtx(ctx, clientID, round, values)
	}
	return agg.AggregateModel(clientID, round, values)
}

// AggError dispatches an error-feedback submission.
func AggError(ctx context.Context, agg Aggregator, clientID, round int, values []float64) ([]float64, error) {
	if ca, ok := agg.(ContextAggregator); ok {
		return ca.AggregateErrorCtx(ctx, clientID, round, values)
	}
	return agg.AggregateError(clientID, round, values)
}

// Dispatcher is the shape AggModel and AggError share.
type Dispatcher func(ctx context.Context, agg Aggregator, clientID, round int, values []float64) ([]float64, error)

// Wire mirrors the real accounting handle.
type Wire struct{}

// Collect runs either collective through its dispatcher and accounts it.
func (w *Wire) Collect(ctx context.Context, dispatch Dispatcher, agg Aggregator, clientID, round int, send, image []float64) ([]float64, int, int, error) {
	res, err := dispatch(ctx, agg, clientID, round, send)
	return res, 0, 0, err
}

// SyncContext dispatches a strategy synchronization.
func SyncContext(ctx context.Context, s Syncer, round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	if cs, ok := s.(ContextSyncer); ok {
		return cs.SyncCtx(ctx, round, local, contributor)
	}
	return s.Sync(round, local, contributor)
}
