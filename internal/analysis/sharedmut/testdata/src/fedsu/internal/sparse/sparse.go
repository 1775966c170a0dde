// Package sparse is a corpus stub: the dispatcher signatures the
// sharedmut analyzer matches by package path + name.
package sparse

import "context"

type Traffic struct{ Up, Down int }

func SyncContext(ctx context.Context, s any, round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	return nil, Traffic{}, nil
}

func AggModel(ctx context.Context, agg any, clientID, round int, values []float64) ([]float64, error) {
	return nil, nil
}

type Wire struct{}

func (w *Wire) Collect(ctx context.Context, dispatch, agg any, clientID, round int, send, image []float64) ([]float64, int, int, error) {
	return nil, 0, 0, nil
}
