// Package sparse is a corpus stub: the vector encoder the pool corpus
// calls, and the barrier-table signatures the pairing analyzer matches by
// package path + name.
package sparse

import "context"

// AppendVectorPayload stands in for the real encoder.
func AppendVectorPayload(dst []byte, vec []float64) []byte {
	return append(dst, byte(len(vec)))
}

type Aggregator interface {
	AggregateModel(clientID, round int, values []float64) ([]float64, error)
}

func SyncContext(ctx context.Context, s any, round int, local []float64, contributor bool) ([]float64, int, error) {
	return nil, 0, nil
}

func AggModel(ctx context.Context, agg Aggregator, clientID, round int, values []float64) ([]float64, error) {
	return nil, nil
}

type Leg uint8

const ModelLeg Leg = 0

func (l Leg) Dispatch(ctx context.Context, agg Aggregator, clientID, round int, values []float64) ([]float64, error) {
	return nil, nil
}

type Dispatcher func(ctx context.Context, agg Aggregator, clientID, round int, values []float64) ([]float64, error)

type Wire struct{}

func (w *Wire) Collect(ctx context.Context, dispatch Dispatcher, agg Aggregator, clientID, round int, send, image []float64) ([]float64, int, int, error) {
	return nil, 0, 0, nil
}
