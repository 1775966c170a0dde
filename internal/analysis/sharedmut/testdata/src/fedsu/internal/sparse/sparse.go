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

type Leg uint8

const ModelLeg Leg = 0

func (l Leg) Dispatch(ctx context.Context, agg any, clientID, round int, values []float64) ([]float64, error) {
	return nil, nil
}

type Collective func(ctx context.Context, leg Leg, clientID, round int, values []float64) ([]float64, error)

func (c Collective) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	return c(context.Background(), ModelLeg, clientID, round, values)
}

func (c Collective) AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return c(ctx, ModelLeg, clientID, round, values)
}

type Wire struct{}

func (w *Wire) Collect(ctx context.Context, dispatch, agg any, clientID, round int, send, image []float64) ([]float64, int, int, error) {
	return nil, 0, 0, nil
}
