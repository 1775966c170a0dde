// Package sparse is a corpus stub: only the barrier-table signatures the
// tokenpair analyzer matches by package path + name.
package sparse

import "context"

type Aggregator interface {
	AggregateModel(clientID, round int, values []float64) ([]float64, error)
}

func SyncContext(ctx context.Context, s any, round int, local []float64, contributor bool) ([]float64, int, error) {
	return nil, 0, nil
}

func AggModel(ctx context.Context, agg Aggregator, clientID, round int, values []float64) ([]float64, error) {
	return nil, nil
}

type Dispatcher func(ctx context.Context, agg Aggregator, clientID, round int, values []float64) ([]float64, error)

type Wire struct{}

func (w *Wire) Collect(ctx context.Context, dispatch Dispatcher, agg Aggregator, clientID, round int, send, image []float64) ([]float64, int, int, error) {
	return nil, 0, 0, nil
}
